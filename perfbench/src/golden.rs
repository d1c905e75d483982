//! The committed expected outputs: the full `gm-run --scale test`
//! stdout and every sweep job's fingerprint. Both files are only read.

use std::collections::HashMap;
use std::path::Path;

/// Expected report text and job fingerprints.
pub struct Golden {
    report: String,
    /// `"<experiment> <workload> <label>"` → fingerprint.
    fingerprints: HashMap<String, String>,
    /// Golden job count per experiment.
    jobs: HashMap<String, usize>,
}

impl Golden {
    /// Reads `gm_run_test_scale.txt` and `fingerprints.txt` from `dir`.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let read = |name: &str| {
            let path = dir.join(name);
            std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
        };
        let report = read("gm_run_test_scale.txt")?;
        let mut fingerprints = HashMap::new();
        let mut jobs: HashMap<String, usize> = HashMap::new();
        for line in read("fingerprints.txt")?.lines() {
            let (key, fp) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("malformed fingerprint line {line:?}"))?;
            let exp = key.split(' ').next().unwrap_or_default();
            *jobs.entry(exp.to_owned()).or_default() += 1;
            fingerprints.insert(key.to_owned(), fp.to_owned());
        }
        Ok(Self {
            report,
            fingerprints,
            jobs,
        })
    }

    /// Whether `text`, the report of the experiment titled `title`,
    /// equals its section of the golden stdout byte for byte: the
    /// section starts where the text's own preamble starts and ends at
    /// the next section's heading or the end of the file.
    pub fn section_matches(&self, title: &str, text: &str) -> bool {
        let heading = format!("== {title} ==\n");
        let (Some(in_text), Some(in_golden)) = (text.find(&heading), self.report.find(&heading))
        else {
            return false;
        };
        let Some(start) = in_golden.checked_sub(in_text) else {
            return false;
        };
        let end = start + text.len();
        self.report.get(start..end) == Some(text)
            && (end == self.report.len() || self.report[end..].starts_with("== "))
    }

    /// Whether `text` is the whole golden stdout.
    pub fn whole_matches(&self, text: &str) -> bool {
        self.report == text
    }

    /// The golden fingerprint of one job, if the fixture has it.
    pub fn fingerprint(&self, experiment: &str, workload: &str, label: &str) -> Option<&str> {
        self.fingerprints
            .get(&format!("{experiment} {workload} {label}"))
            .map(String::as_str)
    }

    /// Jobs the fixture lists for `experiment`.
    pub fn jobs(&self, experiment: &str) -> usize {
        self.jobs.get(experiment).copied().unwrap_or(0)
    }
}
