//! Command line and the parent process: runs fresh launches of this
//! binary per workload, aggregates them, writes `result.json`.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

use crate::json::Json;
use crate::launch::{self, LaunchCfg};
use crate::metrics::{self, WORKLOADS};
use crate::report;

const USAGE: &str = "usage: run.sh [run] [--workload W] [--seed N] [--launches 5] [--seconds 20] \
[--trace [0|1]] [--smoke] [--out DIR]
       run.sh aa [same options]        two full sets back to back, then compare
       run.sh compare A.json B.json    per workload x end-to-end metric: ratio, bound, verdict
       run.sh glossary                 every metric: unit, direction, bound, what it should move";

struct Options {
    workload: Option<String>,
    seed: u64,
    launches: usize,
    /// Timed seconds per workload, split evenly over the launches.
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: String,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workload: None,
            seed: 1,
            launches: 5,
            seconds: 20.0,
            trace: false,
            smoke: false,
            out: "out".into(),
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{arg} needs {what}\n{USAGE}"))
            };
            match arg.as_str() {
                "--workload" => {
                    let w = value("a workload name")?;
                    if !metrics::is_workload(&w) {
                        return Err(format!("unknown workload `{w}`\n{USAGE}"));
                    }
                    o.workload = Some(w);
                }
                "--seed" => o.seed = parse_num(&value("a number")?)?,
                "--launches" => o.launches = parse_num(&value("a number")?)?,
                "--seconds" => o.seconds = parse_num(&value("a number")?)?,
                "--out" => o.out = value("a directory")?,
                "--smoke" => o.smoke = true,
                "--trace" => {
                    // A bare flag, or the driver's `--trace 0|1`.
                    o.trace = match it.peek().map(|s| s.as_str()) {
                        Some("0") => {
                            it.next();
                            false
                        }
                        Some("1") => {
                            it.next();
                            true
                        }
                        _ => true,
                    };
                }
                other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
            }
        }
        if o.launches == 0 || o.seconds.is_nan() || o.seconds <= 0.0 {
            return Err(format!(
                "--launches and --seconds must be positive\n{USAGE}"
            ));
        }
        if o.smoke {
            o.launches = 1;
            o.seconds = 0.3;
        }
        Ok(o)
    }

    fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / self.launches as f64)
    }

    fn workloads(&self) -> Vec<&str> {
        match &self.workload {
            Some(w) => vec![w.as_str()],
            None => WORKLOADS.iter().map(|w| w.name).collect(),
        }
    }
}

fn parse_num<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("`{text}` is not a valid number\n{USAGE}"))
}

pub fn main(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("launch") => child(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => {
                let (table, worse) = report::compare(&read_json(a)?, &read_json(b)?);
                print!("{table}");
                Ok(i32::from(worse > 0))
            }
            _ => Err(USAGE.into()),
        },
        Some("aa") => aa(&Options::parse(&args[1..])?),
        Some("run") => parent(&Options::parse(&args[1..])?).map(|(_, code)| code),
        Some("glossary") => {
            print!("{}", report::glossary());
            Ok(0)
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(0)
        }
        _ => parent(&Options::parse(args)?).map(|(_, code)| code),
    }
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `launch --workload W --seed N --window SECS --crew K [--smoke]
/// [--traced] [--trace-out PATH]`: one launch; the record is the last
/// line of standard output.
fn child(args: &[String]) -> Result<i32, String> {
    let mut cfg = LaunchCfg {
        workload: String::new(),
        seed: 1,
        window: Duration::from_secs(4),
        smoke: false,
        traced: false,
        crew: launch::crew_width(),
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => cfg.workload = value()?,
            "--seed" => cfg.seed = parse_num(&value()?)?,
            "--window" => cfg.window = Duration::from_secs_f64(parse_num(&value()?)?),
            "--crew" => cfg.crew = parse_num(&value()?)?,
            "--trace-out" => cfg.trace_out = Some(value()?),
            "--smoke" => cfg.smoke = true,
            "--traced" => cfg.traced = true,
            other => return Err(format!("launch: unknown argument `{other}`")),
        }
    }
    println!("{}", launch::launch(&cfg)?);
    Ok(0)
}

/// The CPU every launch is confined to: the last one this process may
/// use, if `taskset` is there to do the confining.
///
/// On this 2-vCPU VM a wake-up that crosses vCPUs costs ~3 µs or ~40 µs
/// depending on what the host did in the minute before (after 40 s of
/// two-core load `serve-hot`'s op reads 10.6–12 ms, otherwise 5.5 ms;
/// confined to one CPU it reads 5.1–5.5 ms either way). An unconfined
/// crew measures the hypervisor's wake-up path, not the program, so the
/// crew keeps its width and shares one CPU.
fn pinned_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let last = allowed
        .split(|c: char| !c.is_ascii_digit())
        .rfind(|s| !s.is_empty())?
        .to_string();
    Command::new("taskset")
        .args(["-c", &last, "true"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .ok()
        .filter(|s| s.success())
        .map(|_| last)
}

/// Spawn one launch as a fresh process and wait for its record.
fn spawn_launch(
    o: &Options,
    pin: Option<&str>,
    workload: &str,
    traced: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = match pin {
        Some(cpu) => {
            let mut cmd = Command::new("taskset");
            cmd.args(["-c", cpu]).arg(exe);
            cmd
        }
        None => Command::new(exe),
    };
    cmd.args(["launch", "--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--window", &o.window().as_secs_f64().to_string()])
        .args(["--crew", &launch::crew_width().to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if o.smoke {
        cmd.arg("--smoke");
    }
    if traced {
        cmd.arg("--traced")
            .args(["--trace-out", &format!("{}/trace-{workload}.json", o.out)]);
    }
    let output = cmd.output().map_err(|e| format!("spawn launch: {e}"))?;
    if !output.status.success() {
        return Err(format!("launch of {workload} ended with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("launch printed no record")?;
    Json::parse(line).map_err(|e| format!("launch record of {workload}: {e}"))
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Run the launches, write `result.json`, print the report. Returns the
/// document and the exit code (non-zero on any failed op or missing
/// metric).
fn parent(o: &Options) -> Result<(Json, i32), String> {
    std::fs::create_dir_all(&o.out).map_err(|e| format!("create {}: {e}", o.out))?;
    let names = o.workloads();
    let pin = pinned_cpu();
    // Round-robin across workloads, so a spell of bad weather on the
    // host lands on all of them and not on one.
    let mut records: Vec<Vec<Json>> = vec![Vec::new(); names.len()];
    for _ in 0..o.launches {
        for (i, name) in names.iter().enumerate() {
            records[i].push(spawn_launch(o, pin.as_deref(), name, false)?);
        }
    }
    let mut traced = Vec::new();
    for name in &names {
        traced.push(if o.trace || o.smoke {
            Some(spawn_launch(o, pin.as_deref(), name, true)?)
        } else {
            None
        });
    }

    let mut workloads = Json::obj();
    let mut code = 0;
    for ((name, launches), traced) in names.iter().zip(&records).zip(&traced) {
        let entry = report::aggregate(name, launches, traced.as_ref());
        print!("{}", report::render(name, &entry));
        let missing = report::missing_metrics(&entry, traced.is_some());
        if !missing.is_empty() {
            println!("   MISSING {}", missing.join(", "));
        }
        if entry.num("failed") != Some(0.0) || !missing.is_empty() {
            code = 1;
        }
        workloads = workloads.set(name, entry);
    }
    let stamp = Json::obj()
        .set("nproc", launch::nproc())
        .set("crew", launch::crew_width())
        .set(
            "launches_confined_to_cpu",
            pin.map_or(Json::Null, Json::from),
        )
        .set("seed", o.seed)
        .set("launches", o.launches)
        .set("seconds", o.seconds)
        .set("window_s", o.window().as_secs_f64())
        .set("count_pass_ops", launch::COUNT_PASS_OPS)
        .set("smoke", o.smoke)
        .set(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .set("rustc", tool_line("rustc", &["--version"]))
        .set(
            "git_rev",
            tool_line("git", &["rev-parse", "--short", "HEAD"]),
        );
    let doc = Json::obj().set("stamp", stamp).set("workloads", workloads);
    let path = Path::new(&o.out).join("result.json");
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("write {path:?}: {e}"))?;
    println!("wrote {}", path.display());

    // A single-workload run ends with the one-line result the driver reads.
    if let [name] = names[..] {
        let entry = doc
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or("no entry")?;
        println!("{}", report::final_line(entry, o.trace));
    }
    Ok((doc, code))
}

/// Two full sets back to back on the same code, then `compare`: the
/// benchmark's own check that it repeats within its bounds.
fn aa(o: &Options) -> Result<i32, String> {
    let mut docs = Vec::new();
    let mut code = 0;
    for side in ["a", "b"] {
        let side_opts = Options {
            workload: o.workload.clone(),
            out: format!("{}/aa-{side}", o.out),
            ..*o
        };
        let (doc, c) = parent(&side_opts)?;
        code |= c;
        docs.push(doc);
    }
    let (table, worse) = report::compare(&docs[0], &docs[1]);
    println!("A/A on seed {}: {} worse", o.seed, worse);
    print!("{table}");
    Ok(code | i32::from(worse > 0))
}
