//! `golden.json`: the final diagnostics of one segment of every workload
//! for the default seed, generated on the builder's box by
//! `run.sh --regen-golden` and checked on every default-seed run.

use std::path::PathBuf;
use yy_mhd::Diagnostics;
use yy_obs::json::num;
use yy_obs::Json;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoldenEntry {
    pub steps: u64,
    pub kinetic: f64,
    pub magnetic: f64,
    pub thermal: f64,
    pub mass: f64,
    /// Largest relative mass drift over the segment across seeds 1–10;
    /// ten times this is the drift bound applied to every run.
    pub mass_drift: f64,
}

impl GoldenEntry {
    pub fn diagnostics(&self) -> Diagnostics {
        Diagnostics {
            kinetic: self.kinetic,
            magnetic: self.magnetic,
            thermal: self.thermal,
            mass: self.mass,
            ..Diagnostics::default()
        }
    }
}

pub struct Golden {
    pub seed: u64,
    /// Keyed by workload name, `smoke.<name>` for the smoke grids.
    pub entries: Vec<(String, GoldenEntry)>,
}

/// The golden file sits beside the benchmark's sources in the checkout
/// the binary was built from.
pub fn path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json"))
}

pub fn key(workload: &str, smoke: bool) -> String {
    if smoke {
        format!("smoke.{workload}")
    } else {
        workload.to_string()
    }
}

impl Golden {
    pub fn load() -> Result<Golden, String> {
        let path = path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
        let field = |obj: &Json, name: &str| -> Result<f64, String> {
            obj.get(name)
                .and_then(Json::as_f64)
                .ok_or(format!("golden.json: missing number '{name}'"))
        };
        let seed = field(&doc, "seed")? as u64;
        let members = doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("golden.json: missing object 'workloads'")?;
        let mut entries = Vec::new();
        for (name, obj) in members {
            entries.push((
                name.clone(),
                GoldenEntry {
                    steps: field(obj, "steps")? as u64,
                    kinetic: field(obj, "kinetic")?,
                    magnetic: field(obj, "magnetic")?,
                    thermal: field(obj, "thermal")?,
                    mass: field(obj, "mass")?,
                    mass_drift: field(obj, "mass_drift")?,
                },
            ));
        }
        Ok(Golden { seed, entries })
    }

    pub fn entry(&self, workload: &str, smoke: bool) -> Option<&GoldenEntry> {
        let key = key(workload, smoke);
        self.entries.iter().find(|(k, _)| *k == key).map(|(_, e)| e)
    }

    pub fn save(&self) -> Result<(), String> {
        let mut out = format!("{{\n  \"seed\": {},\n  \"workloads\": {{\n", self.seed);
        for (i, (name, e)) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            out.push_str(&format!(
                "    \"{name}\": {{\"steps\": {}, \"kinetic\": {}, \"magnetic\": {}, \
                 \"thermal\": {}, \"mass\": {}, \"mass_drift\": {}}}{comma}\n",
                e.steps,
                num(e.kinetic),
                num(e.magnetic),
                num(e.thermal),
                num(e.mass),
                num(e.mass_drift)
            ));
        }
        out.push_str("  }\n}\n");
        std::fs::write(path(), out).map_err(|e| format!("writing {}: {e}", path().display()))
    }
}
