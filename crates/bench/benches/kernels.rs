//! Kernel microbench on the build host: the `kernel_blocks` group feeds
//! CI's boundary/interior gate (`bench-check --max-boundary-ratio`).
//! Every other performance number — steps, stages, the simulator — is
//! measured by the `benchmark/` package.

use islands_bench::microbench::Harness;
use stencil_engine::Region3;

/// Every stage kind over one 32×32×16 block, three times: strictly
/// inside a larger domain (`interior/<kind>` — no boundary, and rows of
/// a sub-`k` region do not chain: one row per run), as whole `k`-columns
/// of a domain larger along `i` and `j` only (`plane/<kind>` — each
/// plane of the block is a single run, `k`-end cells included) and as
/// the whole domain (`boundary/<kind>` — all six faces: the `j`-face
/// rows are runs of their own). `bench-check --max-boundary-ratio`
/// gates the Σ17 ratio of the last to the first: domain faces must cost
/// next to nothing.
fn bench_kernel_blocks(h: &mut Harness) {
    use mpdata::{apply_kind, Boundary, MpdataProblem};
    use stencil_engine::Array3;
    let block = Region3::of_extent(32, 32, 16);
    let problem = MpdataProblem::standard();
    let mut group = h.group("kernel_blocks");
    group.sample_size(15);
    let mut seen = Vec::new();
    for st in problem.graph().stages() {
        let kind = problem.kind(st.id);
        if seen.contains(&kind) {
            continue;
        }
        seen.push(kind);
        let columns = Region3::new(block.i.expand(2, 2), block.j.expand(2, 2), block.k);
        for (side, domain) in [
            ("interior", block.expand_uniform(2)),
            ("plane", columns),
            ("boundary", block),
        ] {
            let inputs: Vec<Array3> = (0..st.inputs.len())
                .map(|n| {
                    Array3::from_fn(domain, |i, j, k| {
                        0.3 + 0.01 * ((n as i64 * 31 + i * 7 + j * 5 + k * 3) % 61) as f64
                    })
                })
                .collect();
            let ins: Vec<&Array3> = inputs.iter().collect();
            let mut outputs = vec![Array3::zeros(domain); st.outputs.len()];
            group.bench(&format!("{side}/{kind:?}"), || {
                let mut outs: Vec<&mut Array3> = outputs.iter_mut().collect();
                apply_kind(kind, domain, Boundary::Open, &ins, &mut outs, block);
            });
        }
    }
    group.finish();
}

fn main() {
    let mut h = Harness::from_env();
    bench_kernel_blocks(&mut h);
    h.finish();
}
