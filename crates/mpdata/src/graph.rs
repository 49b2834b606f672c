//! MPDATA stage graphs: the 17-stage time step of the paper, and its
//! generalization to an arbitrary number of corrective iterations.
//!
//! Every MPDATA time step performs the same heterogeneous stencil
//! stages (paper §3.1): the first-order upwind pass (4 stages: three
//! donor-cell fluxes and the update), then one *corrective iteration*
//! per additional order — 13 stages each: antidiffusive
//! pseudo-velocities (3), local extrema (1), pseudo fluxes (3), the
//! non-oscillatory β limiters of Smolarkiewicz & Grabowski (2), the
//! limited fluxes (3) and the corrective update (1). The paper's
//! configuration is `iord = 2`: 4 + 13 = **17 stages**.
//!
//! Stage *kinds* ([`StageKind`]) identify the kernel arithmetic. A
//! stage's inputs are a plain field list; the pattern it declares for
//! each is derived from the taps its kernel sweeps at that slot
//! ([`StageKind::taps`], in [`crate::kernels`]), so the declaration
//! every dependency analysis trusts — required regions, block halos,
//! the islands' recomputed halo — is the kernel's own read list.

use crate::kernels::Boundary;
use stencil_engine::{
    FieldId, FieldRole, FieldTable, StageDef, StageGraph, StageId, StencilPattern,
};

/// Number of stages in the paper's (`iord = 2`) MPDATA time step.
pub const STAGE_COUNT: usize = 17;

/// The kernel arithmetic of one stage.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StageKind {
    /// Donor-cell flux through low-`i` faces.
    FluxI,
    /// Donor-cell flux through low-`j` faces.
    FluxJ,
    /// Donor-cell flux through low-`k` faces.
    FluxK,
    /// `ψ' = ψ − div(F)/h` (both the low-order and corrective updates).
    Update,
    /// Antidiffusive pseudo-velocity through low-`i` faces.
    AntidiffI,
    /// Antidiffusive pseudo-velocity through low-`j` faces.
    AntidiffJ,
    /// Antidiffusive pseudo-velocity through low-`k` faces.
    AntidiffK,
    /// Local 7-point extrema of two fields.
    MinMax,
    /// β↑ in-flow limiter.
    BetaUp,
    /// β↓ out-flow limiter.
    BetaDn,
    /// Monotone limiting of an `i`-face flux.
    LimFluxI,
    /// Monotone limiting of a `j`-face flux.
    LimFluxJ,
    /// Monotone limiting of a `k`-face flux.
    LimFluxK,
}

impl StageKind {
    /// Floating-point operations per updated cell, as implemented by
    /// [`crate::kernels::apply_kind`] (comparisons and `abs` count one
    /// flop, divisions one flop — the convention behind the paper's
    /// ≈230 flop/cell/step arithmetic intensity).
    pub fn flops_per_cell(self) -> f64 {
        match self {
            StageKind::FluxI | StageKind::FluxJ | StageKind::FluxK => 5.0,
            StageKind::Update => 7.0,
            StageKind::AntidiffI | StageKind::AntidiffJ | StageKind::AntidiffK => 36.0,
            StageKind::MinMax => 26.0,
            StageKind::BetaUp | StageKind::BetaDn => 15.0,
            StageKind::LimFluxI | StageKind::LimFluxJ | StageKind::LimFluxK => 9.0,
        }
    }
}

/// The stage kinds of the paper's 17-stage time step, in order.
pub const STANDARD_KINDS: [StageKind; STAGE_COUNT] = [
    StageKind::FluxI,
    StageKind::FluxJ,
    StageKind::FluxK,
    StageKind::Update,
    StageKind::AntidiffI,
    StageKind::AntidiffJ,
    StageKind::AntidiffK,
    StageKind::MinMax,
    StageKind::FluxI, // pseudo fluxes reuse the donor-cell kernel
    StageKind::FluxJ,
    StageKind::FluxK,
    StageKind::BetaUp,
    StageKind::BetaDn,
    StageKind::LimFluxI,
    StageKind::LimFluxJ,
    StageKind::LimFluxK,
    StageKind::Update,
];

/// Total flops per cell of one full time step with `iord = 2`.
pub fn flops_per_cell() -> f64 {
    STANDARD_KINDS.iter().map(|k| k.flops_per_cell()).sum()
}

/// The external input fields of any MPDATA problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExternalIds {
    /// Advected scalar.
    pub x: FieldId,
    /// Courant number through low-`i` faces.
    pub u1: FieldId,
    /// Courant number through low-`j` faces.
    pub u2: FieldId,
    /// Courant number through low-`k` faces.
    pub u3: FieldId,
    /// Density / Jacobian.
    pub h: FieldId,
}

/// A complete MPDATA problem description: the stage graph for a given
/// number of passes, the kernel kind of every stage, and the field
/// handles the executors bind.
#[derive(Clone, Debug)]
pub struct MpdataProblem {
    graph: StageGraph,
    kinds: Vec<StageKind>,
    ext: ExternalIds,
    xout: FieldId,
    iord: usize,
    boundary: Boundary,
}

impl MpdataProblem {
    /// Builds the MPDATA problem with `iord` passes: 1 = pure upwind
    /// (4 stages), 2 = the paper's configuration (17 stages), `n` adds
    /// 13 stages per extra corrective iteration.
    ///
    /// # Panics
    ///
    /// Panics if `iord == 0`.
    pub fn with_iord(iord: usize) -> Self {
        use StageKind::*;
        assert!(iord >= 1, "MPDATA needs at least the upwind pass");
        let mut t = FieldTable::new();
        let [x, u1, u2, u3, h] =
            ["x", "u1", "u2", "u3", "h"].map(|n| t.add(n, FieldRole::External));
        let ext = ExternalIds { x, u1, u2, u3, h };

        // One pass's stages: kernel kind, name, outputs, inputs. Each
        // input slot's pattern is the offsets its kernel taps there —
        // the kernels' taps are the one stencil declaration.
        type Pass<'a> = [(StageKind, &'a str, &'a [FieldId], &'a [FieldId])];
        let mut stages: Vec<StageDef> = Vec::new();
        let mut kinds: Vec<StageKind> = Vec::new();
        let mut push = |pass: &Pass, sfx: &str| {
            for &(kind, name, outputs, inputs) in pass {
                let taps = kind.taps();
                let slots = taps.iter().map(|t| t.0 + 1).max();
                assert_eq!(slots, Some(inputs.len()), "{name}: one input per slot");
                let tapped_at = |slot| taps.iter().filter(move |t| t.0 == slot).map(|t| t.1);
                let inputs = inputs.iter().enumerate();
                stages.push(StageDef {
                    id: StageId(stages.len() as u32),
                    name: format!("{name}{sfx}"),
                    outputs: outputs.to_vec(),
                    inputs: inputs
                        .map(|(slot, &f)| (f, StencilPattern::from_offsets(tapped_at(slot))))
                        .collect(),
                    flops_per_cell: kind.flops_per_cell(),
                });
                kinds.push(kind);
            }
        };
        let role = |last: bool| {
            if last {
                FieldRole::Output
            } else {
                FieldRole::Intermediate
            }
        };

        // ---- Pass 1: upwind ------------------------------------------
        let [f1, f2, f3] = ["f1", "f2", "f3"].map(|n| t.add(n, FieldRole::Intermediate));
        let xp = t.add(if iord == 1 { "xout" } else { "xp" }, role(iord == 1));
        #[rustfmt::skip]
        push(&[
            (FluxI, "flux_i", &[f1], &[x, u1]),
            (FluxJ, "flux_j", &[f2], &[x, u2]),
            (FluxK, "flux_k", &[f3], &[x, u3]),
            (Update, "low_order", &[xp], &[x, f1, f2, f3, h]),
        ], "");

        // ---- Corrective iterations -----------------------------------
        // Velocities transporting iteration k: the physical Courant
        // numbers for k = 2, the previous iteration's antidiffusive
        // velocities for k ≥ 3 (standard MPDATA recursion).
        let mut xs = xp;
        let (mut pu1, mut pu2, mut pu3) = (u1, u2, u3);
        for k in 2..=iord {
            let sfx = if k == 2 {
                String::new()
            } else {
                format!("_{k}")
            };
            let [v1, v2, v3, mx, mn, g1, g2, g3, bu, bd, f1l, f2l, f3l] = [
                "v1", "v2", "v3", "mx", "mn", "g1", "g2", "g3", "bu", "bd", "f1l", "f2l", "f3l",
            ]
            .map(|n| t.add(&format!("{n}{sfx}"), FieldRole::Intermediate));
            let xk_name = if k == iord {
                "xout".into()
            } else {
                format!("xc{sfx}")
            };
            let xk = t.add(&xk_name, role(k == iord));
            #[rustfmt::skip]
            push(&[
                (AntidiffI, "antidiff_i", &[v1], &[xs, pu1, pu2, pu3, h]),
                (AntidiffJ, "antidiff_j", &[v2], &[xs, pu2, pu1, pu3, h]),
                (AntidiffK, "antidiff_k", &[v3], &[xs, pu3, pu1, pu2, h]),
                (MinMax, "minmax", &[mx, mn], &[x, xs]),
                // Pseudo fluxes reuse the donor-cell kernel.
                (FluxI, "pflux_i", &[g1], &[xs, v1]),
                (FluxJ, "pflux_j", &[g2], &[xs, v2]),
                (FluxK, "pflux_k", &[g3], &[xs, v3]),
                (BetaUp, "beta_up", &[bu], &[mx, xs, g1, g2, g3, h]),
                (BetaDn, "beta_dn", &[bd], &[mn, xs, g1, g2, g3, h]),
                (LimFluxI, "lim_flux_i", &[f1l], &[g1, bu, bd]),
                (LimFluxJ, "lim_flux_j", &[f2l], &[g2, bu, bd]),
                (LimFluxK, "lim_flux_k", &[f3l], &[g3, bu, bd]),
                (Update, "update", &[xk], &[xs, f1l, f2l, f3l, h]),
            ], &sfx);
            xs = xk;
            (pu1, pu2, pu3) = (v1, v2, v3);
        }

        let xout = xs;
        let graph = StageGraph::build(t, stages).expect("MPDATA stage graph is well-formed");
        MpdataProblem {
            graph,
            kinds,
            ext,
            xout,
            iord,
            boundary: Boundary::Open,
        }
    }

    /// Changes the boundary treatment (default [`Boundary::Open`]).
    pub fn with_boundary(mut self, boundary: Boundary) -> Self {
        self.boundary = boundary;
        self
    }

    /// The boundary treatment.
    pub fn boundary(&self) -> Boundary {
        self.boundary
    }

    /// The paper's configuration: one corrective iteration (17 stages).
    pub fn standard() -> Self {
        Self::with_iord(2)
    }

    /// The stage graph.
    pub fn graph(&self) -> &StageGraph {
        &self.graph
    }

    /// The kernel kind of `stage`.
    pub fn kind(&self, stage: StageId) -> StageKind {
        self.kinds[stage.index()]
    }

    /// Kernel kinds in stage order.
    pub fn kinds(&self) -> &[StageKind] {
        &self.kinds
    }

    /// Handles to the five external inputs.
    pub fn ext(&self) -> ExternalIds {
        self.ext
    }

    /// The output field.
    pub fn xout(&self) -> FieldId {
        self.xout
    }

    /// The number of passes.
    pub fn iord(&self) -> usize {
        self.iord
    }

    /// Total flops per cell of one time step of this problem.
    pub fn flops_per_cell(&self) -> f64 {
        self.kinds.iter().map(|k| k.flops_per_cell()).sum()
    }
}

/// Builds the paper's 17-stage MPDATA graph
/// ([`MpdataProblem::standard`]) and returns the handles to its five
/// external inputs with it.
pub fn mpdata_graph() -> (StageGraph, ExternalIds) {
    let p = MpdataProblem::standard();
    (p.graph().clone(), p.ext())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_engine::Region3;

    #[test]
    fn graph_has_17_stages_5_inputs_1_output() {
        let (g, ext) = mpdata_graph();
        assert_eq!(g.stage_count(), STAGE_COUNT);
        assert_eq!(g.external_fields().len(), 5);
        assert!(g.external_fields().contains(&ext.x));
        assert_eq!(g.output_fields(), vec![MpdataProblem::standard().xout()]);
        assert_eq!(g.fields().len(), 23);
    }

    #[test]
    fn stage_names_are_unique_and_ordered() {
        let (g, _) = mpdata_graph();
        let mut names: Vec<&str> = g.stages().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names[0], "flux_i");
        assert_eq!(names[16], "update");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STAGE_COUNT);
    }

    #[test]
    fn flops_per_cell_matches_paper_ballpark() {
        // The paper's sustained numbers imply ≈230 flop/cell/step.
        let f = flops_per_cell();
        assert!((200.0..260.0).contains(&f), "flops/cell = {f}");
        assert_eq!(f, MpdataProblem::standard().flops_per_cell());
    }

    #[test]
    fn standard_kinds_match_graph_order() {
        let p = MpdataProblem::standard();
        assert_eq!(p.kinds(), &STANDARD_KINDS);
        assert_eq!(p.iord(), 2);
        let flops = [
            5.0, 5.0, 5.0, 7.0, 36.0, 36.0, 36.0, 26.0, 5.0, 5.0, 5.0, 15.0, 15.0, 9.0, 9.0, 9.0,
            7.0,
        ];
        for (n, st) in p.graph().stages().iter().enumerate() {
            assert_eq!(st.flops_per_cell, flops[n]);
        }
    }

    #[test]
    fn iord_scaling() {
        assert_eq!(MpdataProblem::with_iord(1).graph().stage_count(), 4);
        assert_eq!(MpdataProblem::with_iord(2).graph().stage_count(), 17);
        assert_eq!(MpdataProblem::with_iord(3).graph().stage_count(), 30);
        assert_eq!(MpdataProblem::with_iord(4).graph().stage_count(), 43);
        // Output is always the single output field.
        for iord in 1..=4 {
            let p = MpdataProblem::with_iord(iord);
            assert_eq!(p.graph().output_fields(), vec![p.xout()]);
            assert_eq!(p.graph().external_fields().len(), 5);
        }
    }

    #[test]
    fn iord3_chains_velocities() {
        let p = MpdataProblem::with_iord(3);
        let t = p.graph().fields();
        // Third-pass antidiffusive velocity reads the second pass's.
        let v1_3 = t.find("v1_3").expect("third-pass velocity");
        let anti3 = p
            .graph()
            .stages()
            .iter()
            .find(|s| s.outputs == vec![v1_3])
            .unwrap();
        let v1_2 = t.find("v1").unwrap();
        assert!(
            anti3.reads(v1_2),
            "pass 3 must transport with pass-2 velocities"
        );
        // And the second corrective update feeds the third pass (the
        // k = 2 iterate carries no suffix, like the other k = 2 names).
        let xc2 = t.find("xc").expect("intermediate iterate");
        assert!(anti3.reads(xc2), "pass 3 must advect the pass-2 iterate");
    }

    #[test]
    fn cumulative_i_halos_are_small_and_monotone() {
        let (g, _) = mpdata_graph();
        let h = g.cumulative_halos();
        assert!(h[0].i_neg >= h[16].i_neg);
        assert_eq!(h[16].i_neg, 0);
        assert_eq!(h[16].i_pos, 0);
        for (n, halo) in h.iter().enumerate() {
            assert!(halo.i_neg <= 4 && halo.i_pos <= 4, "stage {n}: {halo:?}");
        }
    }

    #[test]
    fn deeper_iord_reaches_farther() {
        let h2 = MpdataProblem::with_iord(2).graph().cumulative_halos();
        let h3 = MpdataProblem::with_iord(3).graph().cumulative_halos();
        assert!(
            h3[0].i_neg > h2[0].i_neg,
            "more passes ⇒ deeper dependencies"
        );
    }

    #[test]
    fn whole_domain_requires_every_stage_everywhere() {
        let (g, _) = mpdata_graph();
        let d = Region3::of_extent(16, 8, 8);
        let rr = g.required_regions(d, d);
        for (n, r) in rr.iter().enumerate() {
            assert_eq!(*r, d, "stage {n} must cover the whole domain");
        }
    }

    #[test]
    fn extra_updates_scale_linearly_in_cuts() {
        let (g, _) = mpdata_graph();
        let d = Region3::of_extent(64, 16, 8);
        let whole: usize = g.required_regions(d, d).iter().map(|r| r.cells()).sum();
        let mut extras = Vec::new();
        for parts in [2usize, 4, 8] {
            let total: usize = d
                .split(stencil_engine::Axis::I, parts)
                .into_iter()
                .map(|p| {
                    g.required_regions(p, d)
                        .iter()
                        .map(|r| r.cells())
                        .sum::<usize>()
                })
                .sum();
            extras.push(total - whole);
        }
        assert!(extras[0] > 0);
        let per_cut = extras[0] as f64;
        assert!((extras[1] as f64 - 3.0 * per_cut).abs() / (3.0 * per_cut) < 0.05);
        assert!((extras[2] as f64 - 7.0 * per_cut).abs() / (7.0 * per_cut) < 0.05);
    }
}
