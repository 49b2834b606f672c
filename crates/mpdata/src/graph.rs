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
//! Stage *kinds* ([`StageKind`]) identify the kernel arithmetic; the
//! graph's declared patterns are the single source of truth for all
//! dependency analysis, and the kernel implementations in
//! [`crate::kernels`] are tested against them.

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

/// Flops per cell of each stage of the 17-stage graph, in stage order.
pub const STAGE_FLOPS: [f64; STAGE_COUNT] = [
    5.0, 5.0, 5.0, 7.0, 36.0, 36.0, 36.0, 26.0, 5.0, 5.0, 5.0, 15.0, 15.0, 9.0, 9.0, 9.0, 7.0,
];

/// Total flops per cell of one full time step with `iord = 2`.
pub fn flops_per_cell() -> f64 {
    STAGE_FLOPS.iter().sum()
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
        assert!(iord >= 1, "MPDATA needs at least the upwind pass");
        let mut t = FieldTable::new();
        let x = t.add("x", FieldRole::External);
        let u1 = t.add("u1", FieldRole::External);
        let u2 = t.add("u2", FieldRole::External);
        let u3 = t.add("u3", FieldRole::External);
        let h = t.add("h", FieldRole::External);
        let ext = ExternalIds { x, u1, u2, u3, h };

        let point = StencilPattern::point;
        let don = |axis: usize| {
            let mut o = [0_i64; 3];
            o[axis] = -1;
            StencilPattern::from_offsets([(0, 0, 0), (o[0], o[1], o[2])])
        };
        let div = |axis: usize| {
            let mut o = [0_i64; 3];
            o[axis] = 1;
            StencilPattern::from_offsets([(0, 0, 0), (o[0], o[1], o[2])])
        };

        let mut stages: Vec<StageDef> = Vec::new();
        let mut kinds: Vec<StageKind> = Vec::new();
        let mut next_id = 0u32;
        let mut push = |stages: &mut Vec<StageDef>,
                        kinds: &mut Vec<StageKind>,
                        kind: StageKind,
                        name: String,
                        outputs: Vec<FieldId>,
                        inputs: Vec<(FieldId, StencilPattern)>| {
            stages.push(StageDef {
                id: StageId(next_id),
                name,
                outputs,
                inputs,
                flops_per_cell: kind.flops_per_cell(),
            });
            kinds.push(kind);
            next_id += 1;
        };

        // ---- Pass 1: upwind ------------------------------------------
        let last_pass = iord == 1;
        let role = |last: bool| {
            if last {
                FieldRole::Output
            } else {
                FieldRole::Intermediate
            }
        };
        let f1 = t.add("f1", FieldRole::Intermediate);
        let f2 = t.add("f2", FieldRole::Intermediate);
        let f3 = t.add("f3", FieldRole::Intermediate);
        let xp = t.add(if last_pass { "xout" } else { "xp" }, role(last_pass));
        push(
            &mut stages,
            &mut kinds,
            StageKind::FluxI,
            "flux_i".into(),
            vec![f1],
            vec![(x, don(0)), (u1, point())],
        );
        push(
            &mut stages,
            &mut kinds,
            StageKind::FluxJ,
            "flux_j".into(),
            vec![f2],
            vec![(x, don(1)), (u2, point())],
        );
        push(
            &mut stages,
            &mut kinds,
            StageKind::FluxK,
            "flux_k".into(),
            vec![f3],
            vec![(x, don(2)), (u3, point())],
        );
        push(
            &mut stages,
            &mut kinds,
            StageKind::Update,
            "low_order".into(),
            vec![xp],
            vec![
                (x, point()),
                (f1, div(0)),
                (f2, div(1)),
                (f3, div(2)),
                (h, point()),
            ],
        );

        // ---- Corrective iterations -----------------------------------
        // Velocities transporting iteration k: the physical Courant
        // numbers for k = 2, the previous iteration's antidiffusive
        // velocities for k ≥ 3 (standard MPDATA recursion).
        let mut scalar_prev = xp;
        let mut vel_prev = (u1, u2, u3);
        for k in 2..=iord {
            let last = k == iord;
            let sfx = if k == 2 {
                String::new()
            } else {
                format!("_{k}")
            };
            let nm = |base: &str| format!("{base}{sfx}");

            let (pu1, pu2, pu3) = vel_prev;
            // ψ* reads of the antidiffusive velocity along each axis.
            let xp_anti = |m: usize, p: usize, q: usize| {
                let mut offs: Vec<(i64, i64, i64)> = Vec::new();
                let mk = |ax: usize, s: i64| {
                    let mut o = [0_i64; 3];
                    o[ax] = s;
                    (o[0], o[1], o[2])
                };
                for base in [[0_i64; 3], {
                    let mut o = [0_i64; 3];
                    o[m] = -1;
                    o
                }] {
                    offs.push((base[0], base[1], base[2]));
                    for (ax, s) in [(p, 1_i64), (p, -1), (q, 1), (q, -1)] {
                        let d = mk(ax, s);
                        offs.push((base[0] + d.0, base[1] + d.1, base[2] + d.2));
                    }
                }
                StencilPattern::from_offsets(offs)
            };
            // Cross-velocity averages at a low-`m` face: the four
            // surrounding faces along axis `c`.
            let cross = |m: usize, c: usize| {
                let mut o_m = [0_i64; 3];
                o_m[m] = -1;
                let mut o_c = [0_i64; 3];
                o_c[c] = 1;
                StencilPattern::from_offsets([
                    (0, 0, 0),
                    (o_m[0], o_m[1], o_m[2]),
                    (o_c[0], o_c[1], o_c[2]),
                    (o_m[0] + o_c[0], o_m[1] + o_c[1], o_m[2] + o_c[2]),
                ])
            };

            let v1 = t.add(&nm("v1"), FieldRole::Intermediate);
            let v2 = t.add(&nm("v2"), FieldRole::Intermediate);
            let v3 = t.add(&nm("v3"), FieldRole::Intermediate);
            push(
                &mut stages,
                &mut kinds,
                StageKind::AntidiffI,
                nm("antidiff_i"),
                vec![v1],
                vec![
                    (scalar_prev, xp_anti(0, 1, 2)),
                    (pu1, point()),
                    (pu2, cross(0, 1)),
                    (pu3, cross(0, 2)),
                    (h, don(0)),
                ],
            );
            push(
                &mut stages,
                &mut kinds,
                StageKind::AntidiffJ,
                nm("antidiff_j"),
                vec![v2],
                vec![
                    (scalar_prev, xp_anti(1, 0, 2)),
                    (pu2, point()),
                    (pu1, cross(1, 0)),
                    (pu3, cross(1, 2)),
                    (h, don(1)),
                ],
            );
            push(
                &mut stages,
                &mut kinds,
                StageKind::AntidiffK,
                nm("antidiff_k"),
                vec![v3],
                vec![
                    (scalar_prev, xp_anti(2, 0, 1)),
                    (pu3, point()),
                    (pu1, cross(2, 0)),
                    (pu2, cross(2, 1)),
                    (h, don(2)),
                ],
            );

            let mx = t.add(&nm("mx"), FieldRole::Intermediate);
            let mn = t.add(&nm("mn"), FieldRole::Intermediate);
            push(
                &mut stages,
                &mut kinds,
                StageKind::MinMax,
                nm("minmax"),
                vec![mx, mn],
                vec![
                    (x, StencilPattern::seven_point()),
                    (scalar_prev, StencilPattern::seven_point()),
                ],
            );

            let g1 = t.add(&nm("g1"), FieldRole::Intermediate);
            let g2 = t.add(&nm("g2"), FieldRole::Intermediate);
            let g3 = t.add(&nm("g3"), FieldRole::Intermediate);
            push(
                &mut stages,
                &mut kinds,
                StageKind::FluxI,
                nm("pflux_i"),
                vec![g1],
                vec![(scalar_prev, don(0)), (v1, point())],
            );
            push(
                &mut stages,
                &mut kinds,
                StageKind::FluxJ,
                nm("pflux_j"),
                vec![g2],
                vec![(scalar_prev, don(1)), (v2, point())],
            );
            push(
                &mut stages,
                &mut kinds,
                StageKind::FluxK,
                nm("pflux_k"),
                vec![g3],
                vec![(scalar_prev, don(2)), (v3, point())],
            );

            let bu = t.add(&nm("bu"), FieldRole::Intermediate);
            let bd = t.add(&nm("bd"), FieldRole::Intermediate);
            let beta_inputs = |ex: FieldId| {
                vec![
                    (ex, point()),
                    (scalar_prev, point()),
                    (g1, div(0)),
                    (g2, div(1)),
                    (g3, div(2)),
                    (h, point()),
                ]
            };
            push(
                &mut stages,
                &mut kinds,
                StageKind::BetaUp,
                nm("beta_up"),
                vec![bu],
                beta_inputs(mx),
            );
            push(
                &mut stages,
                &mut kinds,
                StageKind::BetaDn,
                nm("beta_dn"),
                vec![bd],
                beta_inputs(mn),
            );

            let f1l = t.add(&nm("f1l"), FieldRole::Intermediate);
            let f2l = t.add(&nm("f2l"), FieldRole::Intermediate);
            let f3l = t.add(&nm("f3l"), FieldRole::Intermediate);
            push(
                &mut stages,
                &mut kinds,
                StageKind::LimFluxI,
                nm("lim_flux_i"),
                vec![f1l],
                vec![(g1, point()), (bu, don(0)), (bd, don(0))],
            );
            push(
                &mut stages,
                &mut kinds,
                StageKind::LimFluxJ,
                nm("lim_flux_j"),
                vec![f2l],
                vec![(g2, point()), (bu, don(1)), (bd, don(1))],
            );
            push(
                &mut stages,
                &mut kinds,
                StageKind::LimFluxK,
                nm("lim_flux_k"),
                vec![f3l],
                vec![(g3, point()), (bu, don(2)), (bd, don(2))],
            );

            let xk_name = if last { "xout".to_string() } else { nm("xc") };
            let xk = t.add(&xk_name, role(last));
            push(
                &mut stages,
                &mut kinds,
                StageKind::Update,
                nm("update"),
                vec![xk],
                vec![
                    (scalar_prev, point()),
                    (f1l, div(0)),
                    (f2l, div(1)),
                    (f3l, div(2)),
                    (h, point()),
                ],
            );

            scalar_prev = xk;
            vel_prev = (v1, v2, v3);
        }

        let xout = scalar_prev;
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
        for (n, st) in p.graph().stages().iter().enumerate() {
            assert_eq!(st.flops_per_cell, STAGE_FLOPS[n]);
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
