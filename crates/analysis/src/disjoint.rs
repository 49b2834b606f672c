//! Pass 2 — plan-time disjointness.
//!
//! Takes the schedule the islands executor replays —
//! [`mpdata::StepSchedule`], the one derivation of per-team epochs,
//! work units, tile chains and x-slot routing in the workspace — and
//! [`lower`]s its access stream into the checker's IR, a
//! [`SchedulePlan`]. Nothing here re-derives a region: what is proved
//! is the table that runs. [`check_disjointness`] then proves the
//! schedule race-free by region arithmetic alone:
//!
//! * within a team, every `(block, stage)` pair is one barrier-fenced
//!   *epoch*; no slot's write region may intersect another slot's
//!   read-or-write region of the same field inside an epoch;
//! * across teams, the whole time step is one epoch (teams synchronize
//!   only at the step join) — or, in a stage-synchronous plan, each
//!   epoch index is (every epoch ends at the global barrier); no team's
//!   write to a *shared* field (externals, outputs and a
//!   stage-synchronous plan's intermediates) may intersect any other
//!   team's access within one;
//! * external fields are read-only everywhere;
//! * every read of an island-private (intermediate) field must be
//!   covered by same-team writes from strictly earlier epochs — in a
//!   stage-synchronous plan, every read of a non-external field by
//!   *any* team's writes from strictly earlier epochs;
//! * the union of all teams' writes to each shared, non-external field
//!   must cover the whole domain — the executors keep output buffers
//!   (and shared intermediates) alive across steps, so an unwritten
//!   cell is not merely uninitialized, it silently carries the
//!   previous step's value;
//! * a team's scratch buffer may store only a sliding window of its
//!   planes along `i` (plane `p` and plane `p + W` share storage), so
//!   no access may reach `W` or more planes below the highest plane
//!   written to the buffer so far in the same fused step.
//!
//! The checks are sound for [`mpdata::Boundary::Open`] problems because
//! open-boundary reads clamp into the halo-expanded boxes the stream
//! records. Periodic reads wrap out of those boxes, which only
//! stage-synchronous plans allow: there each intermediate is written in
//! one epoch over the whole domain (rule 5), so a read whose box rule 4
//! finds written earlier has its wrapped cells written too.

use crate::diag::{Diagnostic, DiagnosticCode};
use mpdata::{Buffer, MpdataProblem, ScheduleKnobs, SchedulePolicy, StepSchedule, TileMode};
use std::collections::HashMap;
use stencil_engine::{Axis, FieldId, FieldRole, PlanBlocksError, Region3};

/// One planned access of one rank inside an epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedAccess {
    /// Field index (into [`SchedulePlan::field_names`]).
    pub field: usize,
    /// The region touched.
    pub region: Region3,
    /// Write (`true`) or read (`false`).
    pub write: bool,
}

/// One barrier-fenced unit of a team's schedule: all ranks run their
/// accesses concurrently, then meet at the team barrier.
#[derive(Clone, Debug)]
pub struct Epoch {
    /// Human-readable position, e.g. `block 2 / stage upd-1`.
    pub label: String,
    /// Fused-step index: every fused step sweeps the team's scratch
    /// anew, so write frontiers (rule 6) restart with it.
    pub step: usize,
    /// Accesses per rank (index = rank).
    pub per_rank: Vec<Vec<PlannedAccess>>,
}

/// The full schedule of one team (island) for one time step.
#[derive(Clone, Debug)]
pub struct TeamPlan {
    /// Epochs in execution order.
    pub epochs: Vec<Epoch>,
    /// `(field, planes)` for every island-private field whose buffer
    /// stores a sliding window of `planes` i-planes: plane `i` aliases
    /// plane `i + planes`. Fields not listed keep every plane.
    pub windows: Vec<(usize, usize)>,
}

/// Everything the disjointness checker needs about one planned step.
/// All fields are public so tests can seed broken schedules.
#[derive(Clone, Debug)]
pub struct SchedulePlan {
    /// The global domain.
    pub domain: Region3,
    /// Field names, indexed by the `field` of [`PlannedAccess`].
    pub field_names: Vec<String>,
    /// Per field: visible to all teams (externals and final outputs)
    /// rather than island-private scratch.
    pub shared: Vec<bool>,
    /// Per field: external input, never legally written in-step.
    pub external: Vec<bool>,
    /// One plan per team, in team order.
    pub teams: Vec<TeamPlan>,
    /// Every epoch ends at a barrier *all* teams cross, so epoch `e` of
    /// one team runs only beside epoch `e` of the others
    /// ([`StepSchedule::stage_synchronous`]). Unset, teams meet only at
    /// the step's end.
    pub stage_synchronous: bool,
}

/// Lowers a schedule's access stream to the checker's IR — the only
/// producer of [`SchedulePlan`]s.
///
/// * Every slot of the stream — a rank slice, a dynamically claimable
///   chunk or a tile — becomes one `per_rank` entry. Slot-level
///   disjointness implies disjointness under **any** assignment of
///   slots to ranks, which is exactly the freedom dynamic claiming and
///   tile striding have; the epoch fencing (team barrier) is unchanged.
/// * [`Buffer::Shared`] and [`Buffer::Scratch`] map to the graph field
///   itself. Intermediates are island-private (rules 3/5 ignore them,
///   rule 4 demands per-team coverage) unless the schedule is
///   stage-synchronous: then they are shared, and
///   [`SchedulePlan::stage_synchronous`] tells rules 3 and 4 that teams
///   meet after every epoch.
/// * [`Buffer::XSlot`] becomes an island-private, non-external
///   pseudo-field `x@slot{0,1}`: rule 2 forbids same-epoch slot races,
///   rule 4 demands every slot read be covered by earlier same-team
///   slot writes — i.e. that each fused step's halo enlargement is wide
///   enough for the next step's reads — and rule 5 still demands the
///   *last* fused step's shared-output writes tile the domain.
/// * [`Buffer::TileScratch`] becomes one pseudo-field per `(team, step,
///   tile, field)` (`t0/s0/tile3:f1`), mirroring the rank store rebased
///   per tile — sharing them across tiles would let one tile's writes
///   spuriously cover another's reads. Rule 4 is then the tile-halo
///   sufficiency proof: a producer region too narrow for a consumer's
///   halo read surfaces as `UncoveredRead`.
///
/// Tiled epochs are stage-granular although the replay fences tiles
/// only between fused steps. The extra fences are sound for these
/// graphs: within a tile the chain is serial on one rank (so the
/// per-stage ordering is real), and the only cross-tile mutable buffers
/// are the shared output and the x slots, all written solely at the
/// final stage over tile regions that partition the step target —
/// while an in-flight step writes slot `ts % 2` and reads slot
/// `(ts - 1) % 2`, never the same slot.
///
/// [`StepSchedule::scratch_windows`] travels along as each team's
/// `windows`, so rule 6 can prove the storage the accesses land in.
///
/// The replay zeroes no scratch and no output cell between steps, so
/// rules 4 and 5 (`uncovered-read`, `uncovered-output`) over this
/// lowering are the only coverage argument; nothing at run time backs
/// them up.
pub fn lower(schedule: &StepSchedule) -> SchedulePlan {
    let graph = schedule.problem().graph();
    let fields = graph.fields();
    let stage_synchronous = schedule.stage_synchronous();
    let ids = || (0..fields.len()).map(|n| FieldId(n as u32));
    let mut field_names: Vec<String> = ids().map(|f| fields.name(f).to_string()).collect();
    let mut shared: Vec<bool> = ids()
        .map(|f| stage_synchronous || fields.role(f) != FieldRole::Intermediate)
        .collect();
    let mut external: Vec<bool> = ids()
        .map(|f| fields.role(f) == FieldRole::External)
        .collect();
    // Pseudo-fields, keyed by the private buffer they stand for: an x
    // slot by its number, tile scratch by `(team, step, tile, field)`.
    let mut pseudo: HashMap<(usize, usize, usize, Buffer), usize> = HashMap::new();
    let mut private = |key, name: &dyn Fn() -> String| {
        *pseudo.entry(key).or_insert_with(|| {
            field_names.push(name());
            shared.push(false);
            external.push(false);
            field_names.len() - 1
        })
    };
    let knobs = schedule.knobs();
    let tiled = knobs.tile != TileMode::Off;
    let suffix = match knobs.schedule {
        _ if tiled => " (tiles)",
        SchedulePolicy::Dynamic { .. } => " (dynamic chunks)",
        SchedulePolicy::Static => "",
    };
    let idle = TeamPlan {
        epochs: Vec::new(),
        windows: Vec::new(),
    };
    let mut teams = vec![idle; schedule.team_count()];
    for w in schedule.scratch_windows() {
        teams[w.team].windows.push((w.field.index(), w.planes));
    }
    for a in schedule.accesses() {
        let field = match a.buffer {
            Buffer::Shared(f) | Buffer::Scratch(f) => f.index(),
            Buffer::XSlot(n) => private((0, 0, 0, a.buffer), &|| format!("x@slot{n}")),
            Buffer::TileScratch(f) => private((a.team, a.step, a.slot, a.buffer), &|| {
                format!("t{}/s{}/tile{}:{}", a.team, a.step, a.slot, fields.name(f))
            }),
        };
        let epochs = &mut teams[a.team].epochs;
        if epochs.len() <= a.epoch {
            epochs.resize_with(a.epoch + 1, || Epoch {
                label: String::new(),
                step: a.step,
                per_rank: Vec::new(),
            });
        }
        let epoch = &mut epochs[a.epoch];
        if epoch.label.is_empty() {
            if knobs.fuse_steps > 1 || tiled {
                epoch.label = format!("step {} / ", a.step);
            }
            if !tiled && !stage_synchronous {
                epoch.label += &format!("block {} / ", a.block);
            }
            epoch.label += &format!("stage {}{suffix}", graph.stages()[a.stage].name);
        }
        if epoch.per_rank.len() <= a.slot {
            epoch.per_rank.resize_with(a.slot + 1, Vec::new);
        }
        epoch.per_rank[a.slot].push(PlannedAccess {
            field,
            region: a.region,
            write: a.write,
        });
    }
    SchedulePlan {
        domain: schedule.domain(),
        field_names,
        shared,
        external,
        teams,
        stage_synchronous,
    }
}

/// The [`SchedulePlan`] of the classic islands schedule (static rank
/// slices, per-step synchronization, per-stage sweeps): builds the
/// [`StepSchedule`] an executor with these settings replays and
/// [`lower`]s it. One part per team (empty parts allowed — surplus
/// islands idle), `team_sizes` ranks per team splitting every stage
/// sweep along `split_axis` (`TeamSpec::team_sizes` provides this
/// shape), wavefront blocks under `cache_bytes`. Any other knob
/// combination goes through [`StepSchedule::build`] and [`lower`]
/// directly.
///
/// # Errors
///
/// Propagates [`PlanBlocksError`] from [`StepSchedule::build`] — the
/// same error `IslandsExecutor::step` would surface.
///
/// # Panics
///
/// Panics if `parts` and `team_sizes` disagree in length or the problem
/// is not open-boundary (the islands executor rejects it too).
pub fn islands_plan(
    problem: &MpdataProblem,
    domain: Region3,
    parts: &[Region3],
    team_sizes: &[usize],
    split_axis: Axis,
    cache_bytes: usize,
) -> Result<SchedulePlan, PlanBlocksError> {
    let knobs = ScheduleKnobs {
        cache_bytes,
        split_axis: Some(split_axis),
        ..ScheduleKnobs::default()
    };
    StepSchedule::build(problem, domain, parts, team_sizes, knobs).map(|s| lower(&s))
}

/// Like [`islands_plan`], but for the *tile-fused* schedule with
/// explicit `(ti, tj)` tile extents and `fuse_steps` fused steps. There
/// is no `team_sizes` parameter because the proof is independent of the
/// team shape: every tile is its own slot.
///
/// # Panics
///
/// Panics if the problem is not open-boundary.
pub fn islands_plan_tiled(
    problem: &MpdataProblem,
    domain: Region3,
    parts: &[Region3],
    tile: (usize, usize),
    fuse_steps: usize,
) -> SchedulePlan {
    let knobs = ScheduleKnobs {
        fuse_steps,
        tile: TileMode::Fixed {
            ti: tile.0,
            tj: tile.1,
        },
        ..ScheduleKnobs::default()
    };
    let schedule = StepSchedule::build(problem, domain, parts, &vec![1; parts.len()], knobs)
        .expect("tiled schedules plan no wavefront blocks, the only failing step");
    lower(&schedule)
}

/// Proves (or refutes) the plan race-free. Returns all violations, in
/// deterministic order; an empty vector is the proof.
pub fn check_disjointness(plan: &SchedulePlan) -> Vec<Diagnostic> {
    let mut found = Vec::new();
    let fname = |f: usize| plan.field_names[f].clone();

    // Rule 1: externals are read-only, anywhere, by anyone.
    for (t, team) in plan.teams.iter().enumerate() {
        for ep in &team.epochs {
            for (rank, accs) in ep.per_rank.iter().enumerate() {
                for a in accs {
                    if a.write && plan.external[a.field] {
                        found.push(Diagnostic {
                            code: DiagnosticCode::ExternalWrite,
                            site: format!("team {t} rank {rank} / {}", ep.label),
                            field: fname(a.field),
                            detail: format!("schedule writes external field over {:?}", a.region),
                        });
                    }
                }
            }
        }
    }

    // Rule 2: intra-team, per epoch — a rank's write region must not
    // intersect any other rank's read-or-write region of the field.
    // Each rank's accesses stably sorted by field: a write meets only
    // the other ranks' same-field accesses, in program order.
    let mut by_field: Vec<Vec<&PlannedAccess>> = Vec::new();
    for (t, team) in plan.teams.iter().enumerate() {
        for ep in &team.epochs {
            by_field.resize_with(ep.per_rank.len(), Vec::new);
            for (sorted, accs) in by_field.iter_mut().zip(&ep.per_rank) {
                sorted.clear();
                sorted.extend(accs);
                sorted.sort_by_key(|a| a.field);
            }
            for (ra, accs_a) in ep.per_rank.iter().enumerate() {
                for (rb, sorted_b) in by_field.iter().enumerate() {
                    if ra == rb {
                        continue;
                    }
                    for wa in accs_a.iter().filter(|a| a.write) {
                        let lo = sorted_b.partition_point(|b| b.field < wa.field);
                        let same = sorted_b[lo..].iter().take_while(|b| b.field == wa.field);
                        for ab in same {
                            // Write–read pairs are reported once (from
                            // the writer); write–write pairs once per
                            // unordered pair.
                            if (ab.write && ra > rb) || !wa.region.overlaps(ab.region) {
                                continue;
                            }
                            found.push(Diagnostic {
                                code: DiagnosticCode::IntraTeamOverlap,
                                site: format!("team {t} / {}", ep.label),
                                field: fname(wa.field),
                                detail: format!(
                                    "rank {ra} writes {:?} while rank {rb} {} {:?}",
                                    wa.region,
                                    if ab.write { "writes" } else { "reads" },
                                    ab.region
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    // Rule 3: cross-team — writes to shared fields must not intersect
    // any other team's access to them between two fences the teams
    // share: the whole step, or one epoch of a stage-synchronous plan.
    // Per team, per such span: its accesses to shared fields.
    let spans: Vec<Vec<Vec<&PlannedAccess>>> = plan
        .teams
        .iter()
        .map(|team| {
            let fences: Vec<&[Epoch]> = if plan.stage_synchronous {
                team.epochs.chunks(1).collect()
            } else {
                vec![&team.epochs]
            };
            fences
                .into_iter()
                .map(|eps| {
                    let accesses = eps.iter().flat_map(|ep| ep.per_rank.iter().flatten());
                    accesses.filter(|a| plan.shared[a.field]).collect()
                })
                .collect()
        })
        .collect();
    for (ta, spans_a) in spans.iter().enumerate() {
        for (tb, spans_b) in spans.iter().enumerate() {
            if ta == tb {
                continue;
            }
            for (n, (accs_a, accs_b)) in spans_a.iter().zip(spans_b).enumerate() {
                for wa in accs_a.iter().filter(|a| a.write) {
                    for ab in accs_b.iter().filter(|b| b.field == wa.field) {
                        if (ab.write && ta > tb) || !wa.region.overlaps(ab.region) {
                            continue;
                        }
                        let (site, unfenced) = if plan.stage_synchronous {
                            let label = &plan.teams[ta].epochs[n].label;
                            let site = format!("teams {ta}+{tb} / {label}");
                            (site, "before the epoch's global barrier")
                        } else {
                            let site = format!("teams {ta}+{tb}");
                            (site, "with no intra-step synchronization between teams")
                        };
                        found.push(Diagnostic {
                            code: DiagnosticCode::CrossTeamOverlap,
                            site,
                            field: fname(wa.field),
                            detail: format!(
                                "team {ta} writes {:?} while team {tb} {} {:?} {unfenced}",
                                wa.region,
                                if ab.write { "writes" } else { "reads" },
                                ab.region
                            ),
                        });
                    }
                }
            }
        }
    }

    // Rule 4: coverage — reads of a field the step produces must
    // resolve to cells written in a strictly earlier epoch: by the same
    // team (island-private scratch), or — every epoch of a
    // stage-synchronous plan ending at the global barrier — by any team
    // (its shared intermediates). A history is the sequence of rounds of
    // concurrent epochs: each team's own, or — stage-synchronous — one
    // for all teams, round `e` holding every team's epoch `e`.
    let mut histories: Vec<Vec<Vec<(usize, &Epoch)>>> = Vec::new();
    for (t, team) in plan.teams.iter().enumerate() {
        if histories.is_empty() || !plan.stage_synchronous {
            histories.push(Vec::new());
        }
        let rounds = histories.last_mut().expect("pushed above");
        for (e, ep) in team.epochs.iter().enumerate() {
            match rounds.get_mut(e) {
                Some(round) => round.push((t, ep)),
                None => rounds.push(vec![(t, ep)]),
            }
        }
    }
    // Fields the step reads but does not produce: the inputs — and,
    // step-synchronous, every shared field (the output is never read).
    let (exempt, whose): (&[bool], _) = if plan.stage_synchronous {
        (&plan.external, "any team")
    } else {
        (&plan.shared, "this team")
    };
    // A read's uncovered pieces, and the next ones as a write is cut out.
    let (mut remaining, mut rest) = (Vec::new(), Vec::new());
    for history in histories {
        // Per field: the regions written so far, in program order.
        let mut written: Vec<Vec<Region3>> = vec![Vec::new(); plan.field_names.len()];
        for round in history {
            for &(t, ep) in &round {
                for (rank, accs) in ep.per_rank.iter().enumerate() {
                    for rd in accs.iter().filter(|a| !a.write && !exempt[a.field]) {
                        remaining.clear();
                        remaining.push(rd.region);
                        for wr in &written[rd.field] {
                            // A write that misses the read misses every
                            // piece (any write covers an empty read).
                            if !wr.overlaps(rd.region) && !rd.region.is_empty() {
                                continue;
                            }
                            rest.clear();
                            for r in &remaining {
                                r.subtract_each(*wr, |piece| rest.push(piece));
                            }
                            std::mem::swap(&mut remaining, &mut rest);
                            if remaining.is_empty() {
                                break;
                            }
                        }
                        if let Some(gap) = remaining.first() {
                            found.push(Diagnostic {
                                code: DiagnosticCode::UncoveredRead,
                                site: format!("team {t} rank {rank} / {}", ep.label),
                                field: fname(rd.field),
                                detail: format!(
                                    "reads {:?} but no earlier epoch of {whose} wrote {:?}",
                                    rd.region, gap
                                ),
                            });
                        }
                    }
                }
            }
            // Merge the round's writes only after its reads were
            // checked: same-epoch write→read has no fence between them.
            for (_, ep) in round {
                for wr in ep.per_rank.iter().flatten().filter(|a| a.write) {
                    written[wr.field].push(wr.region);
                }
            }
        }
    }

    // Rule 5: output coverage — every domain cell of each shared,
    // non-external field must be written by some team. Output buffers
    // persist across steps, so a coverage gap is stale data, not zeros.
    if !plan.domain.is_empty() {
        for f in 0..plan.field_names.len() {
            if !plan.shared[f] || plan.external[f] {
                continue;
            }
            let mut remaining = vec![plan.domain];
            'cover: for team in &plan.teams {
                for ep in &team.epochs {
                    for accs in &ep.per_rank {
                        for wr in accs.iter().filter(|a| a.write && a.field == f) {
                            remaining = remaining
                                .into_iter()
                                .flat_map(|r| r.subtract(wr.region))
                                .collect();
                            if remaining.is_empty() {
                                break 'cover;
                            }
                        }
                    }
                }
            }
            if let Some(gap) = remaining.first() {
                found.push(Diagnostic {
                    code: DiagnosticCode::UncoveredOutput,
                    site: "whole step".to_string(),
                    field: fname(f),
                    detail: format!(
                        "no team writes {gap:?}; a reused output buffer would hand \
                         those cells the previous step's values"
                    ),
                });
            }
        }
    }

    // Rule 6: window aliasing — re-derived from the accesses alone. A
    // windowed buffer holds the `planes` planes below its write
    // frontier; anything deeper has been overwritten by its alias.
    for (t, team) in plan.teams.iter().enumerate() {
        let mut planes: Vec<Option<usize>> = vec![None; plan.field_names.len()];
        for &(f, w) in &team.windows {
            planes[f] = Some(w);
        }
        // Per field: one past the highest plane written this fused step.
        let mut frontier: Vec<Option<i64>> = vec![None; plan.field_names.len()];
        let mut step = None;
        for ep in &team.epochs {
            if step != Some(ep.step) {
                step = Some(ep.step);
                frontier.fill(None);
            }
            for wr in ep.per_rank.iter().flatten().filter(|a| a.write) {
                let front = &mut frontier[wr.field];
                *front = Some(front.map_or(wr.region.i.hi, |f| f.max(wr.region.i.hi)));
            }
            for (rank, accs) in ep.per_rank.iter().enumerate() {
                for a in accs {
                    let (Some(w), Some(front)) = (planes[a.field], frontier[a.field]) else {
                        continue;
                    };
                    let lo = a.region.i.lo;
                    if front - lo > w as i64 {
                        found.push(Diagnostic {
                            code: DiagnosticCode::WindowAlias,
                            site: format!("team {t} rank {rank} / {}", ep.label),
                            field: fname(a.field),
                            detail: format!(
                                "{} plane {lo} with plane {} already written: {} planes \
                                 in flight, but the buffer's window holds {w}, so plane {lo} \
                                 shares its storage with plane {}",
                                if a.write { "writes" } else { "reads" },
                                front - 1,
                                front - lo,
                                lo + w as i64,
                            ),
                        });
                    }
                }
            }
        }
    }

    found.sort();
    found.dedup();
    found
}
