//! A numerical-weather-prediction-flavoured scenario: a moisture plume
//! advected by a rotating storm system (solid-body rotation in the
//! horizontal, closed domain), integrated with all three execution
//! strategies and cross-checked.
//!
//! This is the workload class the paper's introduction motivates —
//! MPDATA inside the EULAG dynamic core for weather simulation — scaled
//! to laptop size with the same domain *proportions* as the paper's
//! 1024×512×64 grid (16:8:1).
//!
//! Run: `cargo run --release --example weather_advection`

use islands_of_cores::mpdata::{
    rotating_cone, IslandsExecutor, MpdataProblem, OriginalExecutor, ReferenceExecutor,
};
use islands_of_cores::scheduler::{TeamSpec, WorkerPool};
use islands_of_cores::stencil::{Axis, Region3};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 16:8:1 proportions like the paper's grid.
    let domain = Region3::of_extent(96, 48, 6);
    let steps = 25;
    let base = rotating_cone(domain, 0.35);
    println!(
        "domain {}×{}×{} ({} cells), {} steps of a rotating storm\n",
        domain.i.len(),
        domain.j.len(),
        domain.k.len(),
        domain.cells(),
        steps
    );

    // Ground truth.
    let mut reference = base.clone();
    let t0 = Instant::now();
    ReferenceExecutor::new().run(&mut reference, steps);
    let t_ref = t0.elapsed();

    let pool = WorkerPool::new(4);

    let mut original = base.clone();
    let t0 = Instant::now();
    OriginalExecutor::new(&pool).run(&mut original, steps);
    let t_orig = t0.elapsed();

    let mut fused = base.clone();
    let t0 = Instant::now();
    IslandsExecutor::single_island(&pool, MpdataProblem::standard())
        .cache_bytes(512 * 1024)
        .run(&mut fused, steps)?;
    let t_fused = t0.elapsed();

    let mut islands = base.clone();
    let t0 = Instant::now();
    IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
        .cache_bytes(512 * 1024)
        .run(&mut islands, steps)?;
    let t_islands = t0.elapsed();

    println!("strategy          host time   max |Δ| vs reference");
    println!("reference (1T)    {:>8.1?}   —", t_ref);
    println!(
        "original  (4T)    {:>8.1?}   {:.1e}",
        t_orig,
        original.x.max_abs_diff(&reference.x)
    );
    println!(
        "(3+1)D    (4T)    {:>8.1?}   {:.1e}",
        t_fused,
        fused.x.max_abs_diff(&reference.x)
    );
    println!(
        "islands   (2×2)   {:>8.1?}   {:.1e}",
        t_islands,
        islands.x.max_abs_diff(&reference.x)
    );

    let drift = islands.mass() / base.mass() - 1.0;
    println!(
        "\nphysics: mass drift {drift:+.2e}, min {:+.2e} (positive definite)",
        islands.x.min()
    );
    assert_eq!(islands.x.max_abs_diff(&reference.x), 0.0);
    assert!(islands.x.min() >= -1e-12);
    assert!(drift.abs() < 1e-9);
    println!("OK: all strategies agree bitwise; advection is conservative and positive.");
    Ok(())
}
