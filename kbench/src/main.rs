//! `kbench` command line; see README.md.

use kcore_kbench::compare::{self, Verdict};
use kcore_kbench::{run, RunOptions, Scale, Workload};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

const USAGE: &str = "usage:
  kbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--check]
  kbench compare PARENT_RUN... -- CHANGE_RUN...
workloads: peel-deep, peel-hub, dyn-churn, shard-p4 (default: all, one child process each)";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    check: bool,
    /// Set on the child process that runs one workload.
    child: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        out: PathBuf::from(".kbench"),
        check: false,
        child: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workloads = vec![Workload::from_name(v).ok_or(format!("unknown workload {v}"))?];
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--check" => a.check = true,
            "--child" => a.child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Runs each selected workload in a fresh child process, one at a time,
/// with every `KCORE_*` variable cleared so no program knob is set.
fn parent(a: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("kbench: cannot locate own executable: {e}");
            return 1;
        }
    };
    for w in &a.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--child", "--workload", w.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&a.out);
        if a.check {
            cmd.arg("--check");
        }
        for (k, _) in std::env::vars_os() {
            if k.to_string_lossy().starts_with("KCORE_") {
                cmd.env_remove(k);
            }
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("kbench: {} failed ({s})", w.name());
                return 1;
            }
            Err(e) => {
                eprintln!("kbench: cannot start {}: {e}", w.name());
                return 1;
            }
        }
    }
    0
}

fn child(a: &Args) -> i32 {
    let [w] = a.workloads[..] else {
        eprintln!("kbench: a child runs exactly one workload");
        return 2;
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let o = RunOptions {
        workload: w,
        seed: a.seed,
        seconds: if a.check { 0.0 } else { a.seconds },
        trace: a.trace,
        scale: if a.check { Scale::Check } else { Scale::Full },
        threads: w.threads().min(cores),
        out: a.out.clone(),
    };
    let started = std::time::Instant::now();
    let r = match run(&o) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("kbench: {}: {e}", w.name());
            return 1;
        }
    };
    let stem = if o.trace {
        format!("{}.traced", w.name())
    } else {
        w.name().to_string()
    };
    let mut files = vec![(a.out.join(format!("{stem}.json")), r.file_json(&o))];
    if o.trace {
        files.push((
            a.out.join(format!("{}.spans.json", w.name())),
            r.tracer.to_json(w.name()),
        ));
    }
    for (path, text) in &files {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("kbench: write {}: {e}", path.display());
            return 1;
        }
    }

    let mut out = std::io::stdout().lock();
    let mut lines = vec![format!(
        "# kbench {} seed={} threads={} trace={} samples={} attempted={} failed={} fail_frac={} wall_s={:.1}",
        w.name(),
        o.seed,
        o.threads,
        u8::from(o.trace),
        r.samples,
        r.attempted,
        r.failed,
        r.fail_frac(),
        started.elapsed().as_secs_f64()
    )];
    lines.extend(
        r.metrics
            .iter()
            .map(|m| format!("{} {} {}", m.name, m.value, m.unit)),
    );
    if o.trace {
        lines.push("# span                      count    total_ms     self_ms".into());
        for (name, count, total, own) in r.tracer.summary() {
            lines.push(format!("# {name:<24} {count:>6} {total:>11.3} {own:>11.3}"));
        }
    }
    lines.push(r.result_line());
    for l in lines {
        if writeln!(out, "{l}").is_err() {
            return 1;
        }
    }
    i32::from(out.flush().is_err())
}

fn compare_main(args: &[String]) -> i32 {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("{USAGE}");
        return 2;
    };
    let bounds = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|t| compare::load_bounds(&t))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("kbench compare: {e} (run from the repository root)");
            return 2;
        }
    };
    let read = |paths: &[String]| -> Result<Vec<compare::RunFile>, String> {
        let mut runs = Vec::new();
        for p in paths {
            runs.extend(compare::read_runs(Path::new(p))?);
        }
        Ok(runs)
    };
    let (parent, change) = match (read(&args[..split]), read(&args[split + 1..])) {
        (Ok(p), Ok(c)) if !p.is_empty() && !c.is_empty() => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("kbench compare: {e}");
            return 2;
        }
        _ => {
            eprintln!("kbench compare: each side needs at least one run\n{USAGE}");
            return 2;
        }
    };
    let rows = compare::compare(&bounds, &parent, &change);
    print!("{}", compare::render(&rows));
    i32::from(rows.iter().any(|r| r.verdict == Verdict::Worse))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("compare") {
        compare_main(&args[1..])
    } else {
        match parse(&args) {
            Ok(a) if a.child => child(&a),
            Ok(a) => parent(&a),
            Err(e) => {
                eprintln!("kbench: {e}\n{USAGE}");
                2
            }
        }
    };
    std::process::exit(code);
}
