//! The MPDATA stencil contract, pinned at the crate boundary.
//!
//! Every stage's inputs (field and sorted offsets, in slot order) for
//! `iord` 1, 2 and 3 are pinned against a table computed once: the
//! offsets every dependency analysis trusts (required regions, block
//! halos, the islands' recomputed halo) cannot move unnoticed. The
//! conformance proofs then check the kernels read exactly those
//! offsets and write exactly their outputs, under both boundaries and
//! both kernel paths (debug builds: the access recorder is compiled out
//! of release).

use islands_analysis::{check_problem, KernelPath};
use mpdata::{Boundary, MpdataProblem};
use stencil_engine::{Range1, Region3};

/// The `iord = 3` graph's stages: name, then each input as
/// `field[di,dj,dk ...]`. `iord` 1 and 2 read the first 4 and 17 rows.
const IORD3: [&str; 30] = [
    "flux_i x[-1,0,0 0,0,0] u1[0,0,0]",
    "flux_j x[0,-1,0 0,0,0] u2[0,0,0]",
    "flux_k x[0,0,-1 0,0,0] u3[0,0,0]",
    "low_order x[0,0,0] f1[0,0,0 1,0,0] f2[0,0,0 0,1,0] f3[0,0,0 0,0,1] h[0,0,0]",
    "antidiff_i xp[-1,-1,0 -1,0,-1 -1,0,0 -1,0,1 -1,1,0 0,-1,0 0,0,-1 0,0,0 0,0,1 0,1,0] u1[0,0,0] u2[-1,0,0 -1,1,0 0,0,0 0,1,0] u3[-1,0,0 -1,0,1 0,0,0 0,0,1] h[-1,0,0 0,0,0]",
    "antidiff_j xp[-1,-1,0 -1,0,0 0,-1,-1 0,-1,0 0,-1,1 0,0,-1 0,0,0 0,0,1 1,-1,0 1,0,0] u2[0,0,0] u1[0,-1,0 0,0,0 1,-1,0 1,0,0] u3[0,-1,0 0,-1,1 0,0,0 0,0,1] h[0,-1,0 0,0,0]",
    "antidiff_k xp[-1,0,-1 -1,0,0 0,-1,-1 0,-1,0 0,0,-1 0,0,0 0,1,-1 0,1,0 1,0,-1 1,0,0] u3[0,0,0] u1[0,0,-1 0,0,0 1,0,-1 1,0,0] u2[0,0,-1 0,0,0 0,1,-1 0,1,0] h[0,0,-1 0,0,0]",
    "minmax x[-1,0,0 0,-1,0 0,0,-1 0,0,0 0,0,1 0,1,0 1,0,0] xp[-1,0,0 0,-1,0 0,0,-1 0,0,0 0,0,1 0,1,0 1,0,0]",
    "pflux_i xp[-1,0,0 0,0,0] v1[0,0,0]",
    "pflux_j xp[0,-1,0 0,0,0] v2[0,0,0]",
    "pflux_k xp[0,0,-1 0,0,0] v3[0,0,0]",
    "beta_up mx[0,0,0] xp[0,0,0] g1[0,0,0 1,0,0] g2[0,0,0 0,1,0] g3[0,0,0 0,0,1] h[0,0,0]",
    "beta_dn mn[0,0,0] xp[0,0,0] g1[0,0,0 1,0,0] g2[0,0,0 0,1,0] g3[0,0,0 0,0,1] h[0,0,0]",
    "lim_flux_i g1[0,0,0] bu[-1,0,0 0,0,0] bd[-1,0,0 0,0,0]",
    "lim_flux_j g2[0,0,0] bu[0,-1,0 0,0,0] bd[0,-1,0 0,0,0]",
    "lim_flux_k g3[0,0,0] bu[0,0,-1 0,0,0] bd[0,0,-1 0,0,0]",
    "update xp[0,0,0] f1l[0,0,0 1,0,0] f2l[0,0,0 0,1,0] f3l[0,0,0 0,0,1] h[0,0,0]",
    "antidiff_i_3 xc[-1,-1,0 -1,0,-1 -1,0,0 -1,0,1 -1,1,0 0,-1,0 0,0,-1 0,0,0 0,0,1 0,1,0] v1[0,0,0] v2[-1,0,0 -1,1,0 0,0,0 0,1,0] v3[-1,0,0 -1,0,1 0,0,0 0,0,1] h[-1,0,0 0,0,0]",
    "antidiff_j_3 xc[-1,-1,0 -1,0,0 0,-1,-1 0,-1,0 0,-1,1 0,0,-1 0,0,0 0,0,1 1,-1,0 1,0,0] v2[0,0,0] v1[0,-1,0 0,0,0 1,-1,0 1,0,0] v3[0,-1,0 0,-1,1 0,0,0 0,0,1] h[0,-1,0 0,0,0]",
    "antidiff_k_3 xc[-1,0,-1 -1,0,0 0,-1,-1 0,-1,0 0,0,-1 0,0,0 0,1,-1 0,1,0 1,0,-1 1,0,0] v3[0,0,0] v1[0,0,-1 0,0,0 1,0,-1 1,0,0] v2[0,0,-1 0,0,0 0,1,-1 0,1,0] h[0,0,-1 0,0,0]",
    "minmax_3 x[-1,0,0 0,-1,0 0,0,-1 0,0,0 0,0,1 0,1,0 1,0,0] xc[-1,0,0 0,-1,0 0,0,-1 0,0,0 0,0,1 0,1,0 1,0,0]",
    "pflux_i_3 xc[-1,0,0 0,0,0] v1_3[0,0,0]",
    "pflux_j_3 xc[0,-1,0 0,0,0] v2_3[0,0,0]",
    "pflux_k_3 xc[0,0,-1 0,0,0] v3_3[0,0,0]",
    "beta_up_3 mx_3[0,0,0] xc[0,0,0] g1_3[0,0,0 1,0,0] g2_3[0,0,0 0,1,0] g3_3[0,0,0 0,0,1] h[0,0,0]",
    "beta_dn_3 mn_3[0,0,0] xc[0,0,0] g1_3[0,0,0 1,0,0] g2_3[0,0,0 0,1,0] g3_3[0,0,0 0,0,1] h[0,0,0]",
    "lim_flux_i_3 g1_3[0,0,0] bu_3[-1,0,0 0,0,0] bd_3[-1,0,0 0,0,0]",
    "lim_flux_j_3 g2_3[0,0,0] bu_3[0,-1,0 0,0,0] bd_3[0,-1,0 0,0,0]",
    "lim_flux_k_3 g3_3[0,0,0] bu_3[0,0,-1 0,0,0] bd_3[0,0,-1 0,0,0]",
    "update_3 xc[0,0,0] f1l_3[0,0,0 1,0,0] f2l_3[0,0,0 0,1,0] f3l_3[0,0,0 0,0,1] h[0,0,0]",
];

/// One row of [`IORD3`] per stage of the `iord` graph.
fn rows(iord: usize) -> Vec<String> {
    let p = MpdataProblem::with_iord(iord);
    let fields = p.graph().fields();
    let input = |(f, pat): &(_, stencil_engine::StencilPattern)| {
        let offs: Vec<String> = pat
            .offsets()
            .iter()
            .map(|o| format!("{},{},{}", o.di, o.dj, o.dk))
            .collect();
        format!("{}[{}]", fields.name(*f), offs.join(" "))
    };
    let stages = p.graph().stages().iter();
    stages
        .map(|st| {
            let ins: Vec<String> = st.inputs.iter().map(input).collect();
            format!("{} {}", st.name, ins.join(" "))
        })
        .collect()
}

#[test]
fn every_stage_input_is_pinned_for_iord_1_2_and_3() {
    for (iord, stages) in [(1, 4), (2, 17), (3, 30)] {
        assert_eq!(rows(iord), IORD3[..stages], "iord = {iord}");
    }
}

/// Mixed positive/negative bases shake out coordinate-system bugs.
fn domain() -> Region3 {
    Region3::new(Range1::new(2, 7), Range1::new(-1, 3), Range1::new(3, 6))
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "needs the debug-only access recorder")]
fn all_17_stages_conform_under_every_config() {
    for bc in [Boundary::Open, Boundary::Periodic] {
        let problem = MpdataProblem::standard().with_boundary(bc);
        for path in [KernelPath::Dispatch, KernelPath::Scalar] {
            let rep = check_problem(&problem, domain(), path).unwrap();
            assert_eq!(rep.stages, 17);
            assert_eq!(rep.cells, 17 * domain().cells());
            assert_eq!(
                rep.diagnostics,
                vec![],
                "bc={bc:?} path={path:?} must lint clean"
            );
        }
    }
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "needs the debug-only access recorder")]
fn iord3_graph_conforms_too() {
    for bc in [Boundary::Open, Boundary::Periodic] {
        let problem = MpdataProblem::with_iord(3).with_boundary(bc);
        for path in [KernelPath::Dispatch, KernelPath::Scalar] {
            let rep = check_problem(&problem, domain(), path).unwrap();
            assert!(rep.stages > 17, "iord=3 adds stages");
            assert_eq!(rep.diagnostics, vec![], "bc={bc:?} path={path:?}");
        }
    }
}
