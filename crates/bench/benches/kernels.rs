//! Microbenches of the *real-thread* MPDATA executors on the build host
//! (correctness-scale grids; the paper-scale performance numbers come
//! from the simulator binaries, not from here).

use islands_bench::microbench::Harness;
use mpdata::{
    gaussian_pulse, ExchangeExecutor, IslandsExecutor, MpdataProblem, OriginalExecutor,
    ReferenceExecutor,
};
use stencil_engine::{Axis, Region3};
use work_scheduler::{TeamSpec, WorkerPool};

fn bench_step(h: &mut Harness) {
    let domain = Region3::of_extent(48, 24, 12);
    let fields = gaussian_pulse(domain, (0.2, 0.1, 0.0));
    let mut group = h.group("mpdata_step");
    group.sample_size(20);

    let reference = ReferenceExecutor::new();
    group.bench("reference_serial", || {
        std::hint::black_box(reference.step(&fields));
    });

    for workers in [2usize, 4] {
        let pool = WorkerPool::new(workers);
        let original = OriginalExecutor::new(&pool);
        group.bench_param("original_parallel", workers, || {
            std::hint::black_box(original.step(&fields));
        });
        let fused = IslandsExecutor::single_island(&pool, MpdataProblem::standard())
            .cache_bytes(256 * 1024);
        group.bench_param("fused_3p1d", workers, || {
            std::hint::black_box(fused.step(&fields).unwrap());
        });
        let islands = IslandsExecutor::new(&pool, TeamSpec::even(workers, workers.min(2)), Axis::I)
            .cache_bytes(256 * 1024);
        group.bench_param("islands", workers, || {
            std::hint::black_box(islands.step(&fields).unwrap());
        });
        let exchange =
            ExchangeExecutor::new(&pool, TeamSpec::even(workers, workers.min(2)), Axis::I);
        group.bench_param("exchange", workers, || {
            std::hint::black_box(exchange.step(&fields));
        });
    }
    group.finish();
}

fn bench_single_stage(h: &mut Harness) {
    use mpdata::{apply_stage, mpdata_graph};
    use stencil_engine::Array3;
    let domain = Region3::of_extent(64, 64, 32);
    let (graph, _) = mpdata_graph();
    let x = Array3::filled(domain, 2.0);
    let u = Array3::filled(domain, 0.3);
    let h_field = Array3::filled(domain, 1.0);
    let mut group = h.group("single_stage");
    group.sample_size(30);
    {
        let mut f = Array3::zeros(domain);
        group.bench("flux_i", || {
            apply_stage(0, domain, &[&x, &u], &mut [&mut f], domain)
        });
    }
    {
        let mut v = Array3::zeros(domain);
        group.bench("antidiff_i", || {
            apply_stage(
                4,
                domain,
                &[&x, &u, &u, &u, &h_field],
                &mut [&mut v],
                domain,
            )
        });
    }
    {
        let mut mx = Array3::zeros(domain);
        let mut mn = Array3::zeros(domain);
        group.bench("minmax", || {
            apply_stage(7, domain, &[&x, &u], &mut [&mut mx, &mut mn], domain)
        });
    }
    group.finish();
    let _ = graph;
}

fn bench_fast_vs_scalar(h: &mut Harness) {
    use mpdata::{apply_kind, apply_kind_scalar, Boundary, StageKind};
    use stencil_engine::Array3;
    let domain = Region3::of_extent(64, 64, 64);
    let x = Array3::filled(domain, 2.0);
    let u = Array3::filled(domain, 0.3);
    let mut group = h.group("flux_i_paths");
    group.sample_size(40);
    {
        let mut f = Array3::zeros(domain);
        group.bench("rows", || {
            apply_kind(
                StageKind::FluxI,
                domain,
                Boundary::Open,
                &[&x, &u],
                &mut [&mut f],
                domain,
            )
        });
    }
    {
        let mut f = Array3::zeros(domain);
        group.bench("scalar", || {
            apply_kind_scalar(
                StageKind::FluxI,
                domain,
                Boundary::Open,
                &[&x, &u],
                &mut [&mut f],
                domain,
            )
        });
    }
    group.finish();
}

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
    bench_step(&mut h);
    bench_single_stage(&mut h);
    bench_fast_vs_scalar(&mut h);
    bench_kernel_blocks(&mut h);
    h.finish();
}
