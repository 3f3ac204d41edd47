//! The cell runner: every GPU engine of the evaluation run on one dataset,
//! through [`Engine::run_in`] or, for the sharded engine, its fleet run,
//! with everything a table, a golden or `inspect` reads from the run
//! captured once.

use crate::{Cell, Env, PAPER_HOUR_MS};
use kcore_gpu::{FleetRun, MultiGpuConfig};
use kcore_gpusim::{fnv1a_bytes, GpuContext, MemStats, SimError, Trace};
use kcore_systems::{vetga, Engine};

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

/// What one run of one engine on one dataset leaves behind.
#[derive(Debug)]
pub struct RunCapture {
    /// The engine's column name ([`Engine::name`], or `Sharded p=<p>`).
    pub name: String,
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
    /// The allocation ledger of a single-device run that kept no trace; a
    /// kept trace holds it instead. Read it with [`RunCapture::memstats`].
    memstats: Option<MemStats>,
    /// The kernel trace, when asked for (single-device programs).
    pub trace: Option<Trace>,
    /// The fleet run, when asked for (sharded engine, after a success): the
    /// exchange ledger, and per worker one trace, with its allocation
    /// ledger.
    pub fleet: Option<FleetRun>,
}

impl RunCapture {
    /// The allocation ledger of a single-device run, from its kept trace or
    /// else its own snapshot (`None` for the sharded engine, whose kept
    /// fleet run holds one ledger per worker trace).
    pub fn memstats(&self) -> Option<&MemStats> {
        let kept = self.trace.as_ref().map(|t| &t.memstats);
        kept.or(self.memstats.as_ref())
    }

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

/// Runs `engine` on `e` at schedule `seed`, in a fresh context of the
/// dataset's scaled environment. `keep_trace` keeps the kernel trace.
pub fn capture(e: &Env, engine: Engine, seed: u64, keep_trace: bool) -> RunCapture {
    let mut ctx = e.sim.context();
    ctx.set_schedule_seed(seed);
    capture_in(&mut ctx, e, engine, keep_trace)
}

/// [`capture`] in a caller's context, so the caller can arm block
/// profiling before the run. The kept trace is the run's one capture: its
/// JSON document and its Perfetto rendering both come from it.
pub fn capture_in(ctx: &mut GpuContext, e: &Env, engine: Engine, keep_trace: bool) -> RunCapture {
    let res = engine.run_in(ctx, &e.graph, &e.opts);
    let name = engine.name();
    let checked = res.as_ref().map(|run| (&run.core[..], run.iterations));
    let (outcome, iterations) = classify(e, &name, checked);
    let trace = keep_trace.then(|| ctx.trace(format!("{name} on {}", e.dataset.name)));
    RunCapture {
        outcome,
        load_over_hour: engine == Engine::Vetga
            && vetga::load_time_ms(&e.graph, &e.opts.costs) > PAPER_HOUR_MS / e.scale,
        sim_ms: ctx.elapsed_ms(),
        launches: ctx.launches().len() as u64,
        iterations,
        fingerprint: ctx.counters_fingerprint(),
        peak_bytes: ctx.device.peak_bytes(),
        memstats: trace.is_none().then(|| ctx.memstats()),
        trace,
        fleet: None,
        name,
    }
}

/// The sharded engine's configuration for `e` on `p` devices: the
/// dataset's scaled peel configuration on every worker.
pub(crate) fn sharded_config(e: &Env, p: usize) -> MultiGpuConfig {
    MultiGpuConfig {
        num_gpus: p,
        peel: e.opts.peel,
        ..MultiGpuConfig::default()
    }
}

/// Runs the sharded engine on `e` on `p` devices, each a fresh context of
/// the dataset's scaled environment, as the `Sharded p=<p>` cell.
/// `keep_trace` keeps the fleet run after a success.
pub fn capture_sharded(e: &Env, p: usize, keep_trace: bool) -> RunCapture {
    let name = format!("Sharded p={p}");
    let label = format!("{} p={p} fleet", e.dataset.name);
    let res = kcore_gpu::decompose_multi_fleet(&e.graph, &sharded_config(e, p), &e.sim, label);
    let checked = res
        .as_ref()
        .map(|fr| (&fr.run.core[..], fr.run.rounds.into()));
    let (outcome, iterations) = classify(e, &name, checked);
    let fr = res.ok();
    let run = fr.as_ref().map(|fr| &fr.run);
    RunCapture {
        name,
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

fn classify(e: &Env, name: &str, res: Result<(&[u32], u64), &SimError>) -> (Outcome, u64) {
    match res {
        Ok((core, iterations)) if core == e.truth => (Outcome::Ok, iterations),
        Ok((_, iterations)) => (Outcome::WrongCores, iterations),
        Err(SimError::TimeLimit { .. }) => (Outcome::TimeLimit, 0),
        Err(SimError::Oom(_)) => (Outcome::Oom, 0),
        Err(err) => panic!("{name} on {}: {err}", e.dataset.name),
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
        let ok = capture(&e, Engine::OURS, 0, false);
        assert_eq!(ok.outcome, Outcome::Ok);
        assert!(
            matches!(ok.cell(), Cell::Time { avg_ms, std_ms } if avg_ms == ok.sim_ms && std_ms == 0.0)
        );
        assert!(ok.iterations > 0 && ok.launches > 0);
        assert_eq!(Some(ok.peak_bytes), ok.memstats().map(|m| m.peak_bytes));

        let vetga = capture(&e, Engine::Vetga, 0, false);
        assert!(
            !vetga.load_over_hour,
            "the smoke stand-in loads within the hour"
        );

        let limits = e.sim;
        e.sim.time_limit_ms = Some(1e-6);
        let slow = capture(&e, Engine::OURS, 0, false);
        assert_eq!(slow.outcome, Outcome::TimeLimit);
        assert!(matches!(slow.cell(), Cell::OverHour));
        e.sim = limits;
        e.sim.device_capacity_bytes = 1024;
        let oom = capture(&e, Engine::Gswitch, 0, false);
        assert_eq!(oom.outcome, Outcome::Oom);
        assert!(matches!(oom.cell(), Cell::Oom));
        e.sim = limits;

        e.truth[0] += 1;
        let wrong = [
            capture(&e, Engine::OURS, 0, false),
            capture(&e, Engine::MedusaMpm, 0, false),
            capture_sharded(&e, 4, false),
        ];
        for cap in wrong {
            assert_eq!(cap.outcome, Outcome::WrongCores, "{}", cap.name);
            assert!(matches!(cap.cell(), Cell::Wrong));
        }
    }

    /// A kept trace carries the same time bits and fingerprint the capture
    /// reads straight from the context, so tables and traces agree.
    #[test]
    fn kept_trace_matches_the_capture() {
        let e = smoke_amazon();
        for engine in Engine::all() {
            let cap = capture(&e, engine, 2, true);
            let trace = cap.trace.as_ref().expect("kept");
            assert_eq!(trace.totals.time_ms.to_bits(), cap.sim_ms.to_bits());
            assert_eq!(trace.totals.launches, cap.launches);
            assert_eq!(trace.counters_fingerprint(), cap.fingerprint);
            assert_eq!(trace.label, format!("{} on amazon0601", engine.name()));
            // one ledger: the kept trace's
            assert!(cap.memstats.is_none());
            assert!(std::ptr::eq(cap.memstats().unwrap(), &trace.memstats));
            let bare = capture(&e, engine, 2, false);
            assert!(bare.trace.is_none());
            let json = bare.memstats().map(MemStats::to_json);
            assert_eq!(json, Some(trace.memstats.to_json()));
        }
        let sharded = capture_sharded(&e, 4, true);
        assert_eq!(sharded.name, "Sharded p=4");
        let fr = sharded.fleet.as_ref().expect("kept");
        assert_eq!(fr.run.total_ms.to_bits(), sharded.sim_ms.to_bits());
        assert_eq!(fr.fleet.label, "amazon0601 p=4 fleet");
        assert!(sharded.memstats().is_none() && sharded.trace.is_none());
    }
}
