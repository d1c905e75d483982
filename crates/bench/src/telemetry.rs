//! Append-only JSON-lines run telemetry for `gm-run` sweeps.
//!
//! With `--telemetry FILE`, the driver appends one JSON object per line
//! to `FILE` as the run progresses: paired span events for the run, each
//! experiment, and each (workload × scheme) job, carrying fingerprints,
//! cache outcomes, and simulation wall-clock. Scripts and CI consume the
//! stream, so it is deliberately narrow:
//!
//! * every line parses with the strict [`gm_stats::Json`] parser;
//! * spans balance — `run_start`/`run_end` bracket the file,
//!   `experiment_start`/`experiment_end` nest inside the run, and every
//!   `job_start` is closed by a `job_end` (the job produced a result)
//!   or a `job_fail` (supervision exhausted its attempts) with the same
//!   (experiment, workload, scheme) identity before its experiment
//!   ends; `job_retry` events may appear inside an open job span and
//!   close nothing;
//! * no field depends on the worker count, so `--jobs 1` and `--jobs N`
//!   emit the same event *set* (job events may interleave differently);
//! * there are no time-of-day stamps — `wall_us` is simulation
//!   wall-clock, replayed from the store for cache hits, so a warm run's
//!   stream is deterministic.
//!
//! Stdout stays byte-comparable: telemetry goes only to the named file.
//! [`validate`] is the strict checker CI (and `gm-run trace
//! --validate-telemetry`) runs over emitted streams.

use gm_stats::Json;
use std::collections::HashSet;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::Mutex;

/// A shared, thread-safe JSON-lines event writer. Worker threads emit
/// job spans through one `Telemetry` behind a mutex; write errors are
/// latched and reported once by [`Telemetry::finish`] instead of
/// failing (or interleaving warnings into) the run.
pub struct Telemetry {
    inner: Mutex<Inner>,
}

struct Inner {
    out: BufWriter<File>,
    err: Option<String>,
}

impl Telemetry {
    /// Creates (truncating) the telemetry file at `path`.
    pub fn create(path: &str) -> Result<Self, String> {
        let file = File::create(path)
            .map_err(|e| format!("cannot create telemetry file {path:?}: {e}"))?;
        Ok(Self {
            inner: Mutex::new(Inner {
                out: BufWriter::new(file),
                err: None,
            }),
        })
    }

    /// Appends one event line. `fill` adds the event's fields to an
    /// object whose first key is always `"event": name`.
    pub fn emit(&self, name: &str, fill: impl FnOnce(&mut Json)) {
        let mut j = Json::object();
        j.set("event", name);
        fill(&mut j);
        let line = j.render() + "\n";
        let mut inner = self.inner.lock().expect("telemetry writer poisoned");
        if inner.err.is_none() {
            if let Err(e) = inner.out.write_all(line.as_bytes()) {
                inner.err = Some(e.to_string());
            }
        }
    }

    /// Flushes the stream and reports the first write error, if any.
    pub fn finish(&self) -> Result<(), String> {
        let mut inner = self.inner.lock().expect("telemetry writer poisoned");
        if let Some(e) = inner.err.take() {
            return Err(format!("telemetry write failed: {e}"));
        }
        inner
            .out
            .flush()
            .map_err(|e| format!("telemetry flush failed: {e}"))
    }
}

/// What [`validate`] found in a well-formed telemetry stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySummary {
    /// Total event lines.
    pub events: usize,
    /// Closed experiment spans.
    pub experiments: usize,
    /// Job spans closed by `job_end` (the job produced a result).
    pub jobs: usize,
    /// Job spans closed by `job_fail` (the job exhausted supervision).
    pub failed: usize,
    /// `job_retry` events (supervised attempts that were retried).
    pub retries: usize,
}

fn field<'a>(j: &'a Json, line: usize, key: &str) -> Result<&'a Json, String> {
    j.get(key)
        .ok_or_else(|| format!("line {line}: missing field {key:?}"))
}

fn str_field(j: &Json, line: usize, key: &str) -> Result<String, String> {
    field(j, line, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("line {line}: field {key:?} is not a string"))
}

fn u64_field(j: &Json, line: usize, key: &str) -> Result<u64, String> {
    field(j, line, key)?
        .as_u64()
        .ok_or_else(|| format!("line {line}: field {key:?} is not an unsigned integer"))
}

fn bool_field(j: &Json, line: usize, key: &str) -> Result<bool, String> {
    field(j, line, key)?
        .as_bool()
        .ok_or_else(|| format!("line {line}: field {key:?} is not a boolean"))
}

/// Strictly validates a telemetry stream: every line parses with the
/// strict JSON parser, carries a known `event`, and the run /
/// experiment / job spans nest and balance. Job spans may interleave
/// (parallel workers) but must close within their experiment.
pub fn validate(text: &str) -> Result<TelemetrySummary, String> {
    let mut summary = TelemetrySummary::default();
    let mut run_open = false;
    let mut run_closed = false;
    let mut experiment: Option<String> = None;
    let mut open_jobs: HashSet<(String, String)> = HashSet::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let j = Json::parse(raw).map_err(|e| format!("line {line}: {e}"))?;
        let name = str_field(&j, line, "event")?;
        if run_closed {
            return Err(format!("line {line}: event after run_end"));
        }
        match name.as_str() {
            "run_start" => {
                if run_open || summary.events > 0 {
                    return Err(format!("line {line}: run_start is not the first event"));
                }
                str_field(&j, line, "program")?;
                str_field(&j, line, "scale")?;
                run_open = true;
            }
            "run_end" => {
                if !run_open {
                    return Err(format!("line {line}: run_end without run_start"));
                }
                if experiment.is_some() {
                    return Err(format!("line {line}: run_end inside an open experiment"));
                }
                u64_field(&j, line, "experiments")?;
                run_open = false;
                run_closed = true;
            }
            "experiment_start" => {
                if !run_open {
                    return Err(format!("line {line}: experiment_start outside a run"));
                }
                if let Some(open) = &experiment {
                    return Err(format!(
                        "line {line}: experiment_start while {open:?} is still open"
                    ));
                }
                experiment = Some(str_field(&j, line, "experiment")?);
            }
            "experiment_end" => {
                let name = str_field(&j, line, "experiment")?;
                if experiment.as_deref() != Some(name.as_str()) {
                    return Err(format!(
                        "line {line}: experiment_end for {name:?} does not match the open \
                         experiment {experiment:?}"
                    ));
                }
                if let Some((w, s)) = open_jobs.iter().next() {
                    return Err(format!(
                        "line {line}: experiment_end with job {w}/{s} still open"
                    ));
                }
                for key in ["jobs", "hits", "misses", "sim_wall_us"] {
                    u64_field(&j, line, key)?;
                }
                experiment = None;
                summary.experiments += 1;
            }
            "job_start" => {
                let exp = str_field(&j, line, "experiment")?;
                if experiment.as_deref() != Some(exp.as_str()) {
                    return Err(format!(
                        "line {line}: job_start for experiment {exp:?} outside its span"
                    ));
                }
                let id = (
                    str_field(&j, line, "workload")?,
                    str_field(&j, line, "scheme")?,
                );
                if !open_jobs.insert(id.clone()) {
                    return Err(format!(
                        "line {line}: duplicate job_start for {}/{}",
                        id.0, id.1
                    ));
                }
            }
            "job_end" => {
                let exp = str_field(&j, line, "experiment")?;
                if experiment.as_deref() != Some(exp.as_str()) {
                    return Err(format!(
                        "line {line}: job_end for experiment {exp:?} outside its span"
                    ));
                }
                let id = (
                    str_field(&j, line, "workload")?,
                    str_field(&j, line, "scheme")?,
                );
                if !open_jobs.remove(&id) {
                    return Err(format!(
                        "line {line}: job_end without job_start for {}/{}",
                        id.0, id.1
                    ));
                }
                str_field(&j, line, "fingerprint")?;
                bool_field(&j, line, "cached")?;
                u64_field(&j, line, "wall_us")?;
                summary.jobs += 1;
            }
            "job_retry" => {
                let exp = str_field(&j, line, "experiment")?;
                if experiment.as_deref() != Some(exp.as_str()) {
                    return Err(format!(
                        "line {line}: job_retry for experiment {exp:?} outside its span"
                    ));
                }
                let id = (
                    str_field(&j, line, "workload")?,
                    str_field(&j, line, "scheme")?,
                );
                if !open_jobs.contains(&id) {
                    return Err(format!(
                        "line {line}: job_retry without an open job for {}/{}",
                        id.0, id.1
                    ));
                }
                u64_field(&j, line, "attempt")?;
                str_field(&j, line, "kind")?;
                summary.retries += 1;
            }
            "job_fail" => {
                let exp = str_field(&j, line, "experiment")?;
                if experiment.as_deref() != Some(exp.as_str()) {
                    return Err(format!(
                        "line {line}: job_fail for experiment {exp:?} outside its span"
                    ));
                }
                let id = (
                    str_field(&j, line, "workload")?,
                    str_field(&j, line, "scheme")?,
                );
                if !open_jobs.remove(&id) {
                    return Err(format!(
                        "line {line}: job_fail without job_start for {}/{}",
                        id.0, id.1
                    ));
                }
                str_field(&j, line, "kind")?;
                u64_field(&j, line, "attempts")?;
                str_field(&j, line, "error")?;
                summary.failed += 1;
            }
            other => return Err(format!("line {line}: unknown event {other:?}")),
        }
        summary.events += 1;
    }
    if summary.events == 0 {
        return Err("empty telemetry stream".into());
    }
    if !run_closed {
        return Err("stream ends without run_end".into());
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(event: &str, fields: &[(&str, Json)]) -> String {
        let mut j = Json::object();
        j.set("event", event);
        for (k, v) in fields {
            j.set(k, v.clone());
        }
        j.render()
    }

    fn job_fields(exp: &str, w: &str, s: &str) -> Vec<(&'static str, Json)> {
        vec![
            ("experiment", Json::from(exp)),
            ("workload", Json::from(w)),
            ("scheme", Json::from(s)),
        ]
    }

    fn well_formed() -> String {
        let mut end = job_fields("fig6", "mcf", "GhostMinion");
        end.extend([
            ("fingerprint", Json::from("abc")),
            ("cached", Json::from(true)),
            ("wall_us", Json::from(12u64)),
        ]);
        [
            line(
                "run_start",
                &[
                    ("program", Json::from("gm-run")),
                    ("scale", Json::from("test")),
                ],
            ),
            line("experiment_start", &[("experiment", Json::from("fig6"))]),
            line("job_start", &job_fields("fig6", "mcf", "GhostMinion")),
            line("job_end", &end),
            line(
                "experiment_end",
                &[
                    ("experiment", Json::from("fig6")),
                    ("jobs", Json::from(1u64)),
                    ("hits", Json::from(1u64)),
                    ("misses", Json::from(0u64)),
                    ("sim_wall_us", Json::from(0u64)),
                ],
            ),
            line("run_end", &[("experiments", Json::from(1u64))]),
        ]
        .join("\n")
    }

    #[test]
    fn validates_a_balanced_stream() {
        let s = validate(&well_formed()).expect("stream validates");
        assert_eq!(s.events, 6);
        assert_eq!(s.experiments, 1);
        assert_eq!(s.jobs, 1);
    }

    #[test]
    fn validates_retry_and_fail_spans() {
        let mut retry = job_fields("fig6", "mcf", "GhostMinion");
        retry.extend([("attempt", Json::from(1u64)), ("kind", Json::from("panic"))]);
        let mut fail = job_fields("fig6", "mcf", "GhostMinion");
        fail.extend([
            ("kind", Json::from("panic")),
            ("attempts", Json::from(2u64)),
            ("error", Json::from("injected fault: panic")),
        ]);
        let stream = [
            line(
                "run_start",
                &[
                    ("program", Json::from("gm-run")),
                    ("scale", Json::from("test")),
                ],
            ),
            line("experiment_start", &[("experiment", Json::from("fig6"))]),
            line("job_start", &job_fields("fig6", "mcf", "GhostMinion")),
            line("job_retry", &retry.clone()),
            line("job_fail", &fail.clone()),
            line(
                "experiment_end",
                &[
                    ("experiment", Json::from("fig6")),
                    ("jobs", Json::from(1u64)),
                    ("hits", Json::from(0u64)),
                    ("misses", Json::from(1u64)),
                    ("sim_wall_us", Json::from(0u64)),
                ],
            ),
            line("run_end", &[("experiments", Json::from(1u64))]),
        ]
        .join("\n");
        let s = validate(&stream).expect("fail span validates");
        assert_eq!(s.jobs, 0);
        assert_eq!(s.failed, 1);
        assert_eq!(s.retries, 1);

        // job_retry outside an open job span is rejected.
        let orphan_retry = [
            line(
                "run_start",
                &[
                    ("program", Json::from("gm-run")),
                    ("scale", Json::from("test")),
                ],
            ),
            line("experiment_start", &[("experiment", Json::from("fig6"))]),
            line("job_retry", &retry),
        ]
        .join("\n");
        let e = validate(&orphan_retry).unwrap_err();
        assert!(e.contains("without an open job"), "{e}");

        // job_fail without job_start is rejected.
        let orphan_fail = [
            line(
                "run_start",
                &[
                    ("program", Json::from("gm-run")),
                    ("scale", Json::from("test")),
                ],
            ),
            line("experiment_start", &[("experiment", Json::from("fig6"))]),
            line("job_fail", &fail),
        ]
        .join("\n");
        let e = validate(&orphan_fail).unwrap_err();
        assert!(e.contains("without job_start"), "{e}");
    }

    #[test]
    fn rejects_unbalanced_and_malformed_streams() {
        assert!(validate("").is_err());
        assert!(validate("not json").is_err());
        assert!(validate("{\"event\":\"mystery\"}").is_err());
        // Retired event kinds are unknown too, even inside an open job
        // span where they used to be accepted.
        let mut retired: Vec<String> = well_formed().lines().map(str::to_owned).collect();
        let mut hit = job_fields("fig6", "mcf", "GhostMinion");
        hit.push(("fingerprint", Json::from("abc")));
        retired.insert(3, line("remote_hit", &hit));
        let e = validate(&retired.join("\n")).unwrap_err();
        assert!(e.contains("unknown event"), "{e}");
        // A job left open past its experiment.
        let open_job = [
            line(
                "run_start",
                &[
                    ("program", Json::from("gm-run")),
                    ("scale", Json::from("test")),
                ],
            ),
            line("experiment_start", &[("experiment", Json::from("fig6"))]),
            line("job_start", &job_fields("fig6", "mcf", "GhostMinion")),
            line(
                "experiment_end",
                &[
                    ("experiment", Json::from("fig6")),
                    ("jobs", Json::from(1u64)),
                    ("hits", Json::from(0u64)),
                    ("misses", Json::from(1u64)),
                    ("sim_wall_us", Json::from(5u64)),
                ],
            ),
        ]
        .join("\n");
        let e = validate(&open_job).unwrap_err();
        assert!(e.contains("still open"), "{e}");
        // Truncated stream: no run_end.
        let truncated = well_formed().lines().take(5).collect::<Vec<_>>().join("\n");
        let e = validate(&truncated).unwrap_err();
        assert!(e.contains("run_end"), "{e}");
        // Events after run_end.
        let trailing =
            well_formed() + "\n" + &line("run_end", &[("experiments", Json::from(1u64))]);
        assert!(validate(&trailing).is_err());
    }

    #[test]
    fn writer_emits_lines_the_validator_accepts() {
        let dir = std::env::temp_dir().join(format!(
            "gm-telemetry-test-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let tel = Telemetry::create(path.to_str().unwrap()).unwrap();
        tel.emit("run_start", |j| {
            j.set("program", "gm-run").set("scale", "test");
        });
        tel.emit("run_end", |j| {
            j.set("experiments", 0u64);
        });
        tel.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let s = validate(&text).expect("emitted stream validates");
        assert_eq!(s.events, 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
