//! The cells a stage kernel is *recorded* touching are pinned.
//!
//! The debug access recorder (`stencil_engine::trace`) is what the
//! conformance pass and the overlap guards see of a kernel. The run
//! traversal borrows spans that physically contain cells it does not
//! use — the `k`-end cells between the windows of two rows — and the
//! recorder must keep reporting the used cells only: per stage kind,
//! the `(read | write, slot, i, j, k)` entries recorded for a
//! whole-domain sweep and for one over an inner `(i, j)` box, under
//! both boundaries, equal — as multisets: a whole-domain sweep reaches
//! every cell anyway — what the row-by-row traversal of PR 17 recorded
//! (fingerprints computed on that commit, then committed).

use mpdata::{apply_kind, Boundary, MpdataProblem, StageKind};
use stencil_engine::rng::{Rng64, SplitMix64};
use stencil_engine::{trace, Array3, Range1, Region3};

/// `(kind, fingerprint of its sorted access log, all four sweeps)`.
const PINS: [(StageKind, u64); 13] = [
    (StageKind::FluxI, 0x13ca_81a4_dfaf_08cc),
    (StageKind::FluxJ, 0x2092_beb6_8a92_2f34),
    (StageKind::FluxK, 0xf37b_3a6d_7b4c_6c76),
    (StageKind::Update, 0x3fdc_5d8b_e135_c335),
    (StageKind::AntidiffI, 0xdc5c_fc77_cae2_3d0a),
    (StageKind::AntidiffJ, 0x5891_4dc0_6dfd_ed65),
    (StageKind::AntidiffK, 0xe39b_d6ea_1c75_5ca1),
    (StageKind::MinMax, 0x5f51_0c1d_ddab_0a51),
    (StageKind::BetaUp, 0xc70e_a7cf_c60e_17b5),
    (StageKind::BetaDn, 0xc70e_a7cf_c60e_17b5),
    (StageKind::LimFluxI, 0x9db2_ad89_111a_8d65),
    (StageKind::LimFluxJ, 0x5622_03a8_d4d1_2add),
    (StageKind::LimFluxK, 0xe6c2_0333_a60a_020a),
];

#[test]
#[cfg_attr(not(debug_assertions), ignore = "needs the debug-only access recorder")]
fn recorded_access_sets_equal_the_row_traversals() {
    // Shifted bases; four interior rows, so runs of several rows form.
    let domain = Region3::new(Range1::new(-1, 4), Range1::new(2, 8), Range1::new(1, 6));
    let p = MpdataProblem::standard();
    let mut got = Vec::new();
    for (kind, _) in PINS {
        let st = p
            .graph()
            .stages()
            .iter()
            .find(|st| p.kind(st.id) == kind)
            .expect("every kind has a stage in the 17-stage graph");
        // One array per slot, so a key names its slot.
        let ins: Vec<Array3> = (0..st.inputs.len())
            .map(|n| Array3::filled(domain, 1.0 + n as f64))
            .collect();
        let mut outs = vec![Array3::zeros(domain); st.outputs.len()];
        let keys: Vec<_> = ins.iter().chain(&outs).map(trace::array_key).collect();
        let mut hash = SplitMix64::new(0xACCE_55ED);
        let inner = Region3::new(Range1::new(0, 3), Range1::new(3, 7), domain.k);
        for (bc, region) in [Boundary::Open, Boundary::Periodic]
            .into_iter()
            .flat_map(|bc| [(bc, domain), (bc, inner)])
        {
            let in_refs: Vec<&Array3> = ins.iter().collect();
            let mut out_refs: Vec<&mut Array3> = outs.iter_mut().collect();
            let ((), log) =
                trace::record(|| apply_kind(kind, domain, bc, &in_refs, &mut out_refs, region));
            let slot = |key| keys.iter().position(|k| *k == key).expect("a stage array") as i64;
            let reads = log
                .reads
                .iter()
                .map(|&(key, i, j, k)| [0, slot(key), i, j, k]);
            let writes = log
                .writes
                .iter()
                .map(|&(key, i, j, k)| [1, slot(key), i, j, k]);
            let mut cells: Vec<[i64; 5]> = reads.chain(writes).collect();
            cells.sort_unstable();
            hash.absorb(cells.len() as u64);
            for v in cells.into_iter().flatten() {
                hash.absorb(v as u64);
            }
        }
        got.push((kind, hash.next_u64()));
    }
    let table = |rows: &[(StageKind, u64)]| {
        let row = |(kind, h): &(StageKind, u64)| format!("    (StageKind::{kind:?}, {h:#018x}),\n");
        rows.iter().map(row).collect::<String>()
    };
    assert_eq!(
        table(&got),
        table(&PINS),
        "recorded access sets moved; new table:\n{}",
        table(&got)
    );
}
