//! The five workloads. Names are stable: later issues cite them.
//!
//! All MPDATA workloads use `iord = 2`, open boundaries, the library's
//! default 16 MiB cache budget and uniform cuts, and are driven as a
//! closed loop with one caller: the next batch of [`BATCH_STEPS`] steps
//! starts when the previous `run` returns.

use islands_trace::json::Json;
use mpdata::TileMode;

/// Steps per `IslandsExecutor::run` call. Divisible by every fusion
/// depth, so k-step epochs (and any future temporal blocking) are never
/// cut short by the sampling unit; a step sample is batch time ÷ 4.
pub const BATCH_STEPS: usize = 4;

/// How the input fields are generated from the seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Input {
    /// `gaussian_pulse` in an open box, Courant vector drawn from the
    /// seed.
    Gaussian,
    /// `random_fields(seed)`: random CFL-safe velocities, closed box.
    Random,
}

/// One MPDATA workload: grid, inputs, team shape and knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct MpdataSpec {
    /// Grid extents `(ni, nj, nk)`.
    pub extent: (usize, usize, usize),
    /// Input generator.
    pub input: Input,
    /// Islands (work teams).
    pub islands: usize,
    /// Workers per island.
    pub team_size: usize,
    /// Cache-tiled stage fusion.
    pub tile: TileMode,
    /// Time steps fused per epoch.
    pub fuse_steps: usize,
    /// Chunks per rank for self-scheduling, 0 = static slices.
    pub self_schedule: usize,
    /// Steps of the stated job `total_s` is projected to.
    pub nominal_steps: usize,
    /// Fresh set-ups per untraced run (`setup_s` is their median).
    pub setups: usize,
}

impl MpdataSpec {
    /// Worker threads the workload runs on.
    pub fn workers(&self) -> usize {
        self.islands * self.team_size
    }

    /// Whether this is already the plain configuration its own
    /// parallel efficiency is measured against: one worker, knobs off.
    pub fn is_serial_baseline(&self) -> bool {
        self.workers() == 1
            && self.tile == TileMode::Off
            && self.fuse_steps == 1
            && self.self_schedule == 0
    }
}

/// The simulator workload: the paper's Table 3 sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct SimSpec {
    /// Simulated grid extents.
    pub extent: (usize, usize, usize),
    /// Simulated time steps per configuration.
    pub steps: usize,
    /// Socket counts swept.
    pub sockets: Vec<usize>,
    /// Sweeps of the stated job `total_s` is projected to.
    pub nominal_sweeps: usize,
    /// Fewest sweeps a run measures, however short `--seconds` is.
    pub min_sweeps: usize,
    /// Set-ups per run (`setup_s` is their median).
    pub setups: usize,
}

/// What a workload runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Kind {
    /// Real threaded MPDATA stepping.
    Mpdata(MpdataSpec),
    /// Plan + simulate on the UV 2000 model.
    Sim(SimSpec),
}

/// A named workload and the reason it exists.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    /// Stable name.
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
    /// Parameters.
    pub kind: Kind,
}

impl Workload {
    /// Worker threads needed (the simulator workload is single-threaded).
    pub fn workers(&self) -> usize {
        match &self.kind {
            Kind::Mpdata(m) => m.workers(),
            Kind::Sim(_) => 1,
        }
    }

    /// The parameters as JSON; `--compare` refuses results whose
    /// parameters differ.
    pub fn params_json(&self) -> Json {
        let num = |v: usize| Json::Num(v as f64);
        let extent = |(a, b, c): (usize, usize, usize)| Json::Array(vec![num(a), num(b), num(c)]);
        match &self.kind {
            Kind::Mpdata(m) => Json::Object(vec![
                ("extent".into(), extent(m.extent)),
                ("input".into(), Json::Str(format!("{:?}", m.input))),
                ("islands".into(), num(m.islands)),
                ("team_size".into(), num(m.team_size)),
                ("tile".into(), Json::Str(format!("{:?}", m.tile))),
                ("fuse_steps".into(), num(m.fuse_steps)),
                ("self_schedule".into(), num(m.self_schedule)),
                ("batch_steps".into(), num(BATCH_STEPS)),
                ("nominal_steps".into(), num(m.nominal_steps)),
                ("setups".into(), num(m.setups)),
            ]),
            Kind::Sim(s) => Json::Object(vec![
                ("extent".into(), extent(s.extent)),
                ("steps".into(), num(s.steps)),
                (
                    "sockets".into(),
                    Json::Array(s.sockets.iter().map(|&p| num(p)).collect()),
                ),
                ("nominal_sweeps".into(), num(s.nominal_sweeps)),
                ("setups".into(), num(s.setups)),
            ]),
        }
    }
}

/// The five workloads, in the order `--all` runs them. `smoke` shrinks
/// every grid for quick iteration; smoke results are labelled and never
/// compared against full ones.
pub fn all(smoke: bool) -> Vec<Workload> {
    let plain = |extent, islands, team_size, nominal_steps, setups| MpdataSpec {
        extent,
        input: Input::Gaussian,
        islands,
        team_size,
        tile: TileMode::Off,
        fuse_steps: 1,
        self_schedule: 0,
        nominal_steps,
        setups,
    };
    let paper = if smoke { (64, 64, 32) } else { (256, 256, 64) };
    let shrink = |n: usize| if smoke { n.div_ceil(8) } else { n };
    vec![
        Workload {
            name: "paper_serial",
            why: "Plain single-threaded baseline on the paper's 256x256x64 grid: no synchronisation, \
                  so mpdata kernel/blocking work shows here and scheduler/trace work must not.",
            kind: Kind::Mpdata(plain(paper, 1, 1, shrink(48), shrink(3))),
        },
        Workload {
            name: "paper_islands",
            why: "The paper's contribution at the host's core count (2 islands x 1 worker): adds \
                  redundant-halo recompute and one global-barrier pair per step; carries par_eff.",
            kind: Kind::Mpdata(plain(paper, 2, 1, shrink(96), shrink(3))),
        },
        Workload {
            name: "sync_small",
            why: "32x32x16 on 1 island x 2 workers: sub-millisecond steps, so dispatch, team \
                  barriers, replay bookkeeping and scalar shell kernels dominate; scheduler work shows here only.",
            kind: Kind::Mpdata(plain((32, 32, 16), 1, 2, shrink(12_000), shrink(301))),
        },
        Workload {
            name: "knobs_mid",
            why: "128x128x64 random fields through the other paths (tile auto, 2-step epochs, \
                  ChunkQueue claims): catches a static-path gain that costs the knob paths.",
            kind: Kind::Mpdata(MpdataSpec {
                extent: if smoke { (48, 48, 32) } else { (128, 128, 64) },
                input: Input::Random,
                islands: 1,
                team_size: 2,
                tile: TileMode::Auto,
                fuse_steps: 2,
                self_schedule: 4,
                nominal_steps: shrink(400),
                setups: shrink(7),
            }),
        },
        Workload {
            name: "sim_table3",
            why: "Table 3 sweep (1024x512x64, P=1..14, original/fused/islands) through core planners, \
                  numa-sim and perf-model: simulator speed with exact simulated statistics; MPDATA layers idle.",
            kind: Kind::Sim(SimSpec {
                extent: if smoke {
                    (256, 128, 64)
                } else {
                    (1024, 512, 64)
                },
                steps: 50,
                sockets: if smoke {
                    vec![1, 2, 14]
                } else {
                    (1..=14).collect()
                },
                nominal_sweeps: 4,
                min_sweeps: if smoke { 2 } else { 3 },
                setups: shrink(2001),
            }),
        },
    ]
}

/// Looks a workload up by name.
pub fn find(name: &str, smoke: bool) -> Option<Workload> {
    all(smoke).into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_workload_needs_more_than_two_workers() {
        for smoke in [false, true] {
            let ws = all(smoke);
            assert_eq!(ws.len(), 5);
            for w in &ws {
                assert!((1..=2).contains(&w.workers()), "{}", w.name);
                assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            }
        }
    }

    #[test]
    fn fusion_depth_divides_the_batch() {
        for w in all(false) {
            if let Kind::Mpdata(m) = w.kind {
                assert_eq!(BATCH_STEPS % m.fuse_steps, 0, "{}", w.name);
            }
        }
    }

    #[test]
    fn smoke_parameters_differ_from_full_ones() {
        // `--compare` relies on this to reject smoke against full.
        for (full, smoke) in all(false).iter().zip(all(true)) {
            assert_ne!(full.params_json(), smoke.params_json(), "{}", full.name);
        }
    }
}
