//! The cell runner: every GPU program of the evaluation, run on one dataset
//! through one entry point, with everything a table, a golden or `inspect`
//! reads from the run captured once.

use crate::{Cell, Env, PAPER_HOUR_MS};
use kcore_gpu::{Buffering, Compaction, FleetRun, MultiGpuConfig, PeelConfig};
use kcore_gpusim::{fnv1a_bytes, GpuContext, MemStats, SimError, Trace};
use kcore_systems::{gswitch, gunrock, medusa, vetga, FrameworkCosts};

/// A GPU program of the evaluation; the baselines are Table III's columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// One of Table II's nine peel variants, at the dataset's geometry.
    Peel(Compaction, Buffering),
    Vetga,
    MedusaMpm,
    MedusaPeel,
    Gunrock,
    /// GSwitch, its round count taken from the known `k_max` (§V).
    Gswitch,
    /// The sharded peel engine on four simulated devices.
    ShardedP4,
}

impl Program {
    /// The paper's kernel.
    pub const OURS: Program = Program::Peel(Compaction::None, Buffering::Global);

    /// Table III's columns, in order.
    pub const TABLE3: [Program; 6] = [
        Program::OURS,
        Program::Vetga,
        Program::MedusaMpm,
        Program::MedusaPeel,
        Program::Gunrock,
        Program::Gswitch,
    ];

    /// The nine peel variants, in Table II's column order.
    pub fn peel_variants() -> impl Iterator<Item = Program> {
        PeelConfig::default()
            .all_variants()
            .into_iter()
            .map(|c| Program::Peel(c.compaction, c.buffering))
    }

    /// The program's column name.
    pub fn name(self) -> &'static str {
        match self {
            Program::Peel(compaction, buffering) => PeelConfig {
                compaction,
                buffering,
                ..PeelConfig::default()
            }
            .variant_name(),
            Program::Vetga => "VETGA",
            Program::MedusaMpm => "Medusa-MPM",
            Program::MedusaPeel => "Medusa-Peel",
            Program::Gunrock => "Gunrock",
            Program::Gswitch => "GSwitch",
            Program::ShardedP4 => "Sharded p=4",
        }
    }
}

/// How a run ended. Any other simulation error panics: no table has a cell
/// for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Finished with the BZ core numbers.
    Ok,
    /// Finished with other core numbers.
    WrongCores,
    /// Exceeded the scaled 1-hour budget.
    TimeLimit,
    /// Exceeded the scaled device capacity.
    Oom,
}

/// What one run of one program on one dataset leaves behind.
#[derive(Debug)]
pub struct RunCapture {
    /// The program that ran.
    pub program: Program,
    /// How the run ended.
    pub outcome: Outcome,
    /// VETGA's load alone exceeds the scaled hour ("LD > 1hr"); it still
    /// runs, so its memory is observed.
    pub load_over_hour: bool,
    /// Simulated time at the end of the run (or at the failure), ms.
    pub sim_ms: f64,
    /// Kernel launches.
    pub launches: u64,
    /// Engine iterations: peel rounds, or the baseline's own count; 0 after
    /// a failure.
    pub iterations: u64,
    /// The counters fingerprint of the run's launches and transfers; the
    /// sharded engine digests its workers' fingerprints in shard order.
    pub fingerprint: u64,
    /// Device peak, bytes (the largest worker peak for the sharded engine).
    pub peak_bytes: u64,
    /// The allocation ledger (`None` for the sharded engine's devices).
    pub memstats: Option<MemStats>,
    /// The kernel trace, when asked for (single-device programs).
    pub trace: Option<Trace>,
    /// The fleet run, when asked for (sharded engine, after a success).
    pub fleet: Option<FleetRun>,
}

impl RunCapture {
    /// The run as a single-run table cell.
    pub fn cell(&self) -> Cell {
        match self.outcome {
            _ if self.load_over_hour => Cell::LoadOverHour,
            Outcome::Ok => Cell::Time {
                avg_ms: self.sim_ms,
                std_ms: 0.0,
            },
            Outcome::WrongCores => Cell::Wrong,
            Outcome::TimeLimit => Cell::OverHour,
            Outcome::Oom => Cell::Oom,
        }
    }
}

/// Runs `program` on `e` at schedule `seed`, in a fresh context of the
/// dataset's scaled environment. `keep_trace` keeps the kernel trace (the
/// fleet run for the sharded engine, which has no schedule seed).
pub fn capture(e: &Env, program: Program, seed: u64, keep_trace: bool) -> RunCapture {
    if program == Program::ShardedP4 {
        assert_eq!(seed, 0, "the sharded engine has no schedule seed");
        return capture_sharded(e, keep_trace);
    }
    let mut ctx = e.sim.context();
    ctx.set_schedule_seed(seed);
    capture_in(&mut ctx, e, program, keep_trace)
}

/// [`capture`] of a single-device program in a caller's context, so the
/// caller can arm block profiling before the run and derive timelines
/// after it.
///
/// # Panics
///
/// On [`Program::ShardedP4`], which runs its own device contexts.
pub fn capture_in(ctx: &mut GpuContext, e: &Env, program: Program, keep_trace: bool) -> RunCapture {
    // framework fixed-time constants scale with the dataset, like the
    // launch and PCIe overheads in `prepare`
    let costs = FrameworkCosts::default().scaled(e.scale);
    let g = &e.graph;
    let res = match program {
        Program::Peel(compaction, buffering) => {
            let cfg = PeelConfig {
                compaction,
                buffering,
                ..e.peel_cfg
            };
            kcore_gpu::decompose_in(ctx, g, &cfg).map(|(core, rounds)| (core, rounds.into()))
        }
        Program::Vetga => vetga::peel_in(ctx, g, &costs),
        Program::MedusaMpm => medusa::mpm_in(ctx, g, &costs),
        Program::MedusaPeel => medusa::peel_in(ctx, g, &costs),
        Program::Gunrock => gunrock::peel_in(ctx, g, &costs),
        Program::Gswitch => gswitch::peel_in(ctx, g, e.k_max, &costs),
        Program::ShardedP4 => panic!("the sharded engine runs its own devices: use `capture`"),
    };
    let (outcome, iterations) = classify(
        e,
        program,
        res.as_ref()
            .map(|(core, iterations)| (&core[..], *iterations)),
    );
    let memstats = ctx.memstats();
    RunCapture {
        program,
        outcome,
        load_over_hour: program == Program::Vetga
            && vetga::load_time_ms(g, &costs) > PAPER_HOUR_MS / e.scale,
        sim_ms: ctx.elapsed_ms(),
        launches: ctx.launches().len() as u64,
        iterations,
        fingerprint: ctx.counters_fingerprint(),
        peak_bytes: ctx.device.peak_bytes(),
        memstats: Some(memstats),
        trace: keep_trace.then(|| ctx.trace(format!("{} on {}", program.name(), e.dataset.name))),
        fleet: None,
    }
}

fn capture_sharded(e: &Env, keep_trace: bool) -> RunCapture {
    let cfg = MultiGpuConfig {
        num_gpus: 4,
        peel: e.peel_cfg,
        ..MultiGpuConfig::default()
    };
    let label = format!("{} p=4 fleet", e.dataset.name);
    let res = kcore_gpu::decompose_multi_fleet(&e.graph, &cfg, &e.sim, label);
    let checked = res
        .as_ref()
        .map(|fr| (&fr.run.core[..], fr.run.rounds.into()));
    let (outcome, iterations) = classify(e, Program::ShardedP4, checked);
    let fr = res.ok();
    let run = fr.as_ref().map(|fr| &fr.run);
    RunCapture {
        program: Program::ShardedP4,
        outcome,
        load_over_hour: false,
        sim_ms: run.map_or(0.0, |r| r.total_ms),
        launches: fr
            .iter()
            .flat_map(|fr| &fr.traces)
            .map(|t| t.totals.launches)
            .sum(),
        iterations,
        fingerprint: run.map_or(0, |r| {
            let bytes: Vec<u8> = r
                .worker_fingerprints
                .iter()
                .flat_map(|fp| fp.to_le_bytes())
                .collect();
            fnv1a_bytes(&bytes)
        }),
        peak_bytes: run
            .and_then(|r| r.per_device_peak_bytes.iter().copied().max())
            .unwrap_or(0),
        memstats: None,
        trace: None,
        fleet: fr.filter(|_| keep_trace),
    }
}

fn classify(e: &Env, program: Program, res: Result<(&[u32], u64), &SimError>) -> (Outcome, u64) {
    match res {
        Ok((core, iterations)) if core == e.truth => (Outcome::Ok, iterations),
        Ok((_, iterations)) => (Outcome::WrongCores, iterations),
        Err(SimError::TimeLimit { .. }) => (Outcome::TimeLimit, 0),
        Err(SimError::Oom(_)) => (Outcome::Oom, 0),
        Err(err) => panic!("{} on {}: {err}", program.name(), e.dataset.name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare;

    fn smoke_amazon() -> Env {
        let d = crate::select(kcore_graph::datasets::smoke_subset(), Some("amazon0601"));
        prepare(d.unwrap().remove(0))
    }

    /// Each way a run can end, and the table cell it renders as.
    #[test]
    fn capture_classifies_every_outcome() {
        let mut e = smoke_amazon();
        let ok = capture(&e, Program::OURS, 0, false);
        assert_eq!(ok.outcome, Outcome::Ok);
        assert!(
            matches!(ok.cell(), Cell::Time { avg_ms, std_ms } if avg_ms == ok.sim_ms && std_ms == 0.0)
        );
        assert!(ok.iterations > 0 && ok.launches > 0);
        assert_eq!(Some(ok.peak_bytes), ok.memstats.map(|m| m.peak_bytes));

        let vetga = capture(&e, Program::Vetga, 0, false);
        assert!(
            !vetga.load_over_hour,
            "the smoke stand-in loads within the hour"
        );

        let limits = e.sim;
        e.sim.time_limit_ms = Some(1e-6);
        let slow = capture(&e, Program::OURS, 0, false);
        assert_eq!(slow.outcome, Outcome::TimeLimit);
        assert!(matches!(slow.cell(), Cell::OverHour));
        e.sim = limits;
        e.sim.device_capacity_bytes = 1024;
        let oom = capture(&e, Program::Gswitch, 0, false);
        assert_eq!(oom.outcome, Outcome::Oom);
        assert!(matches!(oom.cell(), Cell::Oom));
        e.sim = limits;

        e.truth[0] += 1;
        for program in [Program::OURS, Program::MedusaMpm, Program::ShardedP4] {
            let wrong = capture(&e, program, 0, false);
            assert_eq!(wrong.outcome, Outcome::WrongCores, "{program:?}");
            assert!(matches!(wrong.cell(), Cell::Wrong));
        }
    }

    /// A kept trace carries the same time bits and fingerprint the capture
    /// reads straight from the context, so tables and traces agree.
    #[test]
    fn kept_trace_matches_the_capture() {
        let e = smoke_amazon();
        for program in Program::peel_variants().chain(Program::TABLE3[1..].iter().copied()) {
            let cap = capture(&e, program, 2, true);
            let trace = cap.trace.as_ref().expect("kept");
            assert_eq!(trace.totals.time_ms.to_bits(), cap.sim_ms.to_bits());
            assert_eq!(trace.totals.launches, cap.launches);
            assert_eq!(trace.counters_fingerprint(), cap.fingerprint);
            assert_eq!(trace.label, format!("{} on amazon0601", program.name()));
            assert!(capture(&e, program, 2, false).trace.is_none());
        }
        let sharded = capture(&e, Program::ShardedP4, 0, true);
        let fr = sharded.fleet.expect("kept");
        assert_eq!(fr.run.total_ms.to_bits(), sharded.sim_ms.to_bits());
        assert!(sharded.memstats.is_none() && sharded.trace.is_none());
    }
}
