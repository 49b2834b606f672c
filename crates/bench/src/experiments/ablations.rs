//! Ablations of the paper's design choices and its §6 future work:
//! 2-D island grids, islands within a CPU, interconnect sensitivity,
//! recompute vs exchange, and scale-out across IRUs.

use super::{Ctx, Report};
use crate::seconds;
use islands_core::{
    extra_elements, plan_fused, plan_islands, plan_islands_exchange, plan_islands_partitioned,
    plan_islands_with_layout, InitPolicy, IslandLayout, Partition, Variant, Workload,
};
use mpdata::mpdata_graph;
use numa_sim::{ScaleOutParams, UvParams};
use perf_model::{sustained_gflops, Table};
use std::fmt::{self, Write};
use stencil_engine::Region3;

/// **A1 — 2-D island grids** (the paper's future work, §4.2/§6): at a
/// fixed island count, compare the 1-D variants against 2-D island
/// grids by their extra-element cost, and simulate the promising
/// candidates at P = 14.
pub(super) fn ablation2d(_: &Ctx, r: &mut Report) -> fmt::Result {
    let w = Workload::paper();
    let (graph, _) = mpdata_graph();

    // Extra elements of every factorization of 14 islands (and a few
    // smaller counts for context).
    writeln!(
        r,
        "## Extra elements [%] by island grid shape (domain 1024×512×64)"
    )?;
    for (pi, pj) in [
        (14, 1),
        (7, 2),
        (2, 7),
        (1, 14),
        (4, 2),
        (2, 4),
        (8, 1),
        (1, 8),
    ] {
        let part = Partition::grid2d(w.domain, pi, pj).expect("the paper grid divides");
        let e = extra_elements(&graph, &part);
        writeln!(
            r,
            "  {pi:>2} × {pj:<2} ({} islands): {:>6.3} %",
            pi * pj,
            e.percent()
        )?;
    }
    writeln!(r)?;

    // Simulate 1D-A, 1D-B and the 7×2 grid at P = 14.
    let machine = UvParams::uv2000(14).build();
    let layout = IslandLayout::per_socket(&machine);
    let mut t = Table::new(
        "Simulated islands time at P = 14 by partition shape",
        vec!["time [s]".into(), "extra [%]".into()],
    )
    .precision(3);
    for (label, (pi, pj)) in [
        ("1D variant A (14×1)", (14, 1)),
        ("1D variant B (1×14)", (1, 14)),
        ("2D grid 7×2", (7, 2)),
        ("2D grid 2×7", (2, 7)),
    ] {
        let part = Partition::grid2d(w.domain, pi, pj).expect("the paper grid divides");
        let ts = plan_islands_partitioned(&machine, &w, &part, &layout).expect("plans");
        let secs = seconds(&machine, &ts, &w);
        let e = extra_elements(&graph, &part).percent();
        t.push_row(label, vec![secs, e]);
    }
    writeln!(r, "{}", t.render())?;
    writeln!(
        r,
        "note: with the MPDATA grid twice as long in i as in j, 1D-A already has the\n\
         smallest cut area; 2D grids pay cuts in both dimensions but shorten each —\n\
         the paper defers this trade-off to future work, which this ablation maps out."
    )
}

/// **A2 — islands within a CPU** (paper §6: "the proposed
/// islands-of-cores approach can be applied to optimize computations
/// within every multicore CPU"): split each socket's 8 cores into
/// islands of 8, 4, 2 and 1 cores and simulate the paper workload at
/// P = 8 sockets.
pub(super) fn ablation_teams(_: &Ctx, r: &mut Report) -> fmt::Result {
    let w = Workload::paper();
    let (graph, _) = mpdata_graph();
    let machine = UvParams::uv2000(8).build();

    let mut t = Table::new(
        "Sub-socket islands at P = 8 sockets (64 cores), variant A",
        vec!["islands".into(), "time [s]".into(), "extra [%]".into()],
    )
    .precision(3);
    for cores_per_island in [8usize, 4, 2, 1] {
        let layout = IslandLayout::sub_socket(&machine, cores_per_island);
        let ts = plan_islands_with_layout(&machine, &w, Variant::A, &layout).expect("plans");
        let secs = seconds(&machine, &ts, &w);
        let extra = extra_elements(
            &graph,
            &Partition::one_d(w.domain, Variant::A, layout.len()).expect("the paper grid divides"),
        )
        .percent();
        t.push_row(
            format!("{cores_per_island} cores/island"),
            vec![layout.len() as f64, secs, extra],
        );
    }
    writeln!(r, "{}", t.render())?;
    writeln!(
        r,
        "reading: smaller islands trade per-stage team synchronization and halo\n\
         exchange against more redundant computation. On the modelled machine the\n\
         sweet spot sits at 2-4 cores per island (a few percent faster than whole-\n\
         socket islands), and at 1 core per island the ~14% extra elements eat the\n\
         gains back — quantifying the intra-CPU islands idea the paper leaves as\n\
         future work."
    )
}

/// **A3 — interconnect sensitivity**: §4.1 argues the choice between
/// communicating (scenario 1) and recomputing (scenario 2) depends on
/// how the computing resources compare to the interconnect. Sweep the
/// interconnect bandwidth ×{¼, ½, 1, 2, 4, 8} at P = 8 and watch the
/// (3+1)D-vs-islands gap shrink as links get faster.
pub(super) fn ablation_link(_: &Ctx, r: &mut Report) -> fmt::Result {
    let w = Workload::paper();
    let mut t = Table::new(
        "Interconnect sensitivity at P = 8 (bandwidth scale vs times and S_pr)",
        vec!["(3+1)D [s]".into(), "islands [s]".into(), "S_pr".into()],
    )
    .precision(2);
    let mut sprs = Vec::new();
    for f in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let machine = UvParams::uv2000(8).scale_interconnect(f).build();
        let fused = plan_fused(&machine, &w, InitPolicy::ParallelFirstTouch).expect("plans");
        let fused = seconds(&machine, &fused, &w);
        let islands = plan_islands(&machine, &w, Variant::A).expect("plans");
        let islands = seconds(&machine, &islands, &w);
        sprs.push(fused / islands);
        t.push_row(format!("×{f}"), vec![fused, islands, fused / islands]);
    }
    writeln!(r, "{}", t.render())?;

    r.check(
        "S_pr decreases as the interconnect speeds up ...",
        sprs.windows(2).all(|w| w[1] <= w[0]),
        "",
    )?;
    writeln!(
        r,
        "reading: with slow links, replacing communication by redundant computation\n\
         (scenario 2) wins decisively; as links approach cache-like speeds the pure\n\
         (3+1)D decomposition recovers — exactly the architecture-dependence the\n\
         paper's §4.1 predicts."
    )
}

/// **E8 — recompute vs. exchange at island granularity**: the paper's
/// §4.1 presents two scenarios — communicate boundary values
/// (scenario 1, Fig. 1b) or recompute them (scenario 2, Fig. 1c) — and
/// argues scenario 2 fits NUMA machines. This experiment pits the two
/// *directly at island level*: identical partitioning and block
/// schedule, differing only in whether island boundaries are handled by
/// redundant computation (the paper's approach) or by per-stage
/// inter-island cache pulls with machine-wide synchronization.
pub(super) fn ablation_exchange(_: &Ctx, r: &mut Report) -> fmt::Result {
    let w = Workload::paper();
    let mut t = Table::new(
        "Islands: recompute (scenario 2) vs exchange (scenario 1), simulated UV 2000",
        vec![
            "recompute [s]".into(),
            "exchange [s]".into(),
            "exchange/recompute".into(),
        ],
    )
    .precision(2);
    let mut ratios = Vec::new();
    for p in [1usize, 2, 4, 8, 14] {
        let machine = UvParams::uv2000(p).build();
        let rec = plan_islands(&machine, &w, Variant::A).expect("plans");
        let rec = seconds(&machine, &rec, &w);
        let exc = plan_islands_exchange(&machine, &w, Variant::A).expect("plans");
        let exc = seconds(&machine, &exc, &w);
        ratios.push(exc / rec);
        t.push_row(format!("P = {p}"), vec![rec, exc, exc / rec]);
    }
    writeln!(r, "{}", t.render())?;

    r.check(
        "exchange penalty grows with P ....",
        ratios.windows(2).all(|w| w[1] >= w[0]),
        &format!("(×{:.2} at P=14)", ratios[ratios.len() - 1]),
    )?;
    writeln!(
        r,
        "reading: a few percent of redundant updates (Table 2) buys the removal of\n\
         ~{} machine-wide synchronizations and all inter-island cache pulls per\n\
         step. The bigger the machine, the better the purchase — the quantitative\n\
         form of §4.1's qualitative argument.",
        17 * 256
    )
}

/// **E9 — scale-out study** (paper §6 future work: "extending the
/// scalability of our approach for much larger system configurations"):
/// simulate 1–4 IRUs (14–56 sockets, 112–448 cores) joined by a
/// NUMAlink spine, under strong scaling (the paper grid) and weak
/// scaling (grid grows with the machine).
pub(super) fn scaleout(_: &Ctx, r: &mut Report) -> fmt::Result {
    let irus_list = [1usize, 2, 3, 4];
    let islands_seconds = |irus: usize, w: &Workload| {
        let machine = ScaleOutParams::uv2000(irus, 14).build();
        let ts = plan_islands(&machine, w, Variant::A).expect("plans");
        seconds(&machine, &ts, w)
    };

    writeln!(r, "## Strong scaling: paper grid 1024×512×64, 50 steps")?;
    let mut t = Table::new(
        "Strong scaling across IRUs",
        vec![
            "sockets".into(),
            "islands [s]".into(),
            "isl Gflop/s".into(),
            "isl eff [%]".into(),
        ],
    )
    .precision(2);
    let w = Workload::paper();
    let mut t1 = None;
    for &irus in &irus_list {
        let p = irus * 14;
        let islands = islands_seconds(irus, &w);
        let t_one = *t1.get_or_insert(islands * p as f64); // back out T1·P normalization
        let eff = 100.0 * t_one / (p as f64 * islands);
        t.push_row(
            format!("{p}"),
            vec![
                p as f64,
                islands,
                sustained_gflops(w.domain, w.steps, islands),
                eff,
            ],
        );
    }
    writeln!(r, "{}", t.render())?;

    writeln!(
        r,
        "## Weak scaling: grid length grows with the machine (1024·irus ×512×64)"
    )?;
    let mut t = Table::new(
        "Weak scaling across IRUs",
        vec![
            "sockets".into(),
            "islands [s]".into(),
            "isl Gflop/s".into(),
            "weak eff [%]".into(),
        ],
    )
    .precision(2);
    let mut base = None;
    for &irus in &irus_list {
        let p = irus * 14;
        let w = Workload::new(Region3::of_extent(1024 * irus, 512, 64), 50);
        let islands = islands_seconds(irus, &w);
        let b = *base.get_or_insert(islands);
        t.push_row(
            format!("{p}"),
            vec![
                p as f64,
                islands,
                sustained_gflops(w.domain, w.steps, islands),
                100.0 * b / islands,
            ],
        );
    }
    writeln!(r, "{}", t.render())?;
    writeln!(
        r,
        "reading: islands keep scaling across IRUs because they never touch the\n\
         spine within a time step — only the once-per-step synchronization and the\n\
         tiny boundary input halos cross it. This is the property that makes the\n\
         paper's MPI extension plausible, quantified before writing a line of MPI."
    )
}
