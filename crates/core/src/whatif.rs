//! What-if scenario specifications for counterfactual trace replay.
//!
//! A spec is a comma-separated list of clauses, each altering one
//! component of the recorded run's pricing; the whole spec describes one
//! scenario (one `--what-if` flag = one re-timed replay):
//!
//! ```text
//! net=ideal              free network (zero overhead, latency, bandwidth cost)
//! net=knl                re-price messages with another preset's links/placement
//! jitter=0               noise-free: compute at base duration, no latency jitter
//! null=late-sender       wait-state class nulled out of the timing
//! scale:HALO=0.5         local work inside section HALO scaled by 0.5
//! ```
//!
//! Clauses compose: `net=ideal,jitter=0` is the fully idealized replay
//! whose makespan must converge to the critical-path length. Parsing is
//! strict — unknown clauses, duplicate clauses and unknown machine names
//! are errors, so a typo cannot silently replay the identity scenario.

/// The wait-state classes a scenario can null out (the taxonomy of
/// [`crate::waitstate::classify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitClass {
    /// Receiver idling for a send issued after the receive was posted.
    LateSender,
    /// Eager-buffer occupancy: the message waited for the receive. Not
    /// idle time, so nulling it never changes the predicted makespan —
    /// it only clears the class from the re-timed report.
    LateReceiver,
    /// Early arrival at a collective rendezvous.
    WaitAtCollective,
}

impl WaitClass {
    /// The spelling used in specs and reports.
    pub fn name(self) -> &'static str {
        match self {
            WaitClass::LateSender => "late-sender",
            WaitClass::LateReceiver => "late-receiver",
            WaitClass::WaitAtCollective => "wait-at-collective",
        }
    }
}

/// One parsed what-if scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfSpec {
    /// The spec text as given (scenario label in every report).
    pub raw: String,
    /// Machine name whose network/placement re-prices every message
    /// (`"ideal"` frees the network entirely); `None` keeps the recorded
    /// network deltas.
    pub net: Option<String>,
    /// Replay noise-free: compute intervals at their recorded base
    /// duration, zero network latency jitter.
    pub zero_jitter: bool,
    /// Null one wait-state class out of the timing.
    pub null: Option<WaitClass>,
    /// `(section label, factor)` pairs scaling local work.
    pub scale: Vec<(String, f64)>,
}

impl WhatIfSpec {
    /// The identity scenario: nothing altered. Replaying it must
    /// reproduce the recorded run bit for bit.
    pub fn identity() -> WhatIfSpec {
        WhatIfSpec {
            raw: "identity".to_string(),
            net: None,
            zero_jitter: false,
            null: None,
            scale: Vec::new(),
        }
    }
}

/// Parse one `--what-if` spec.
pub fn parse(spec: &str) -> Result<WhatIfSpec, String> {
    let raw = spec.trim();
    if raw.is_empty() {
        return Err("what-if spec is empty (try e.g. 'jitter=0' or 'net=ideal')".to_string());
    }
    let mut out = WhatIfSpec {
        raw: raw.to_string(),
        net: None,
        zero_jitter: false,
        null: None,
        scale: Vec::new(),
    };
    for clause in raw.split(',') {
        let clause = clause.trim();
        if clause.is_empty() {
            return Err(format!("empty clause in what-if spec '{raw}'"));
        }
        if let Some(rest) = clause.strip_prefix("net=") {
            if out.net.is_some() {
                return Err(format!("duplicate net= clause in '{raw}'"));
            }
            machine::presets::by_name(rest).map_err(|e| format!("{e} in '{clause}'"))?;
            out.net = Some(rest.to_string());
        } else if let Some(rest) = clause.strip_prefix("jitter=") {
            if out.zero_jitter {
                return Err(format!("duplicate jitter= clause in '{raw}'"));
            }
            if rest != "0" {
                return Err(format!(
                    "unsupported jitter value '{rest}' in '{clause}' (only jitter=0)"
                ));
            }
            out.zero_jitter = true;
        } else if let Some(rest) = clause.strip_prefix("null=") {
            if out.null.is_some() {
                return Err(format!("duplicate null= clause in '{raw}'"));
            }
            out.null = Some(match rest {
                "late-sender" => WaitClass::LateSender,
                "late-receiver" => WaitClass::LateReceiver,
                "wait-at-collective" => WaitClass::WaitAtCollective,
                other => {
                    return Err(format!(
                        "unknown wait class '{other}' in '{clause}' \
                         (late-sender|late-receiver|wait-at-collective)"
                    ))
                }
            });
        } else if let Some(rest) = clause.strip_prefix("scale:") {
            let Some((label, factor)) = rest.split_once('=') else {
                return Err(format!(
                    "scale clause '{clause}' needs the form scale:SECTION=FACTOR"
                ));
            };
            if label.is_empty() {
                return Err(format!("empty section label in '{clause}'"));
            }
            let k: f64 = factor
                .parse()
                .map_err(|_| format!("scale factor '{factor}' in '{clause}' is not a number"))?;
            if !k.is_finite() || k < 0.0 {
                return Err(format!(
                    "scale factor {k} in '{clause}' must be finite and >= 0"
                ));
            }
            if out.scale.iter().any(|(l, _)| l == label) {
                return Err(format!("duplicate scale clause for '{label}' in '{raw}'"));
            }
            out.scale.push((label.to_string(), k));
        } else {
            return Err(format!(
                "unknown what-if clause '{clause}' \
                 (net=MACHINE | jitter=0 | null=CLASS | scale:SECTION=K)"
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_clauses_parse() {
        let s = parse("net=ideal").unwrap();
        assert_eq!(s.net.as_deref(), Some("ideal"));
        assert!(!s.zero_jitter);
        let s = parse("jitter=0").unwrap();
        assert!(s.zero_jitter);
        let s = parse("null=late-sender").unwrap();
        assert_eq!(s.null, Some(WaitClass::LateSender));
        let s = parse("scale:HALO=0.5").unwrap();
        assert_eq!(s.scale, vec![("HALO".to_string(), 0.5)]);
    }

    #[test]
    fn clauses_compose() {
        let s = parse("net=ideal, jitter=0, scale:HALO=2").unwrap();
        assert_eq!(s.net.as_deref(), Some("ideal"));
        assert!(s.zero_jitter);
        assert_eq!(s.scale.len(), 1);
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for (spec, needle) in [
            ("", "empty"),
            ("net=quantum", "unknown machine"),
            ("jitter=1", "only jitter=0"),
            ("null=slow", "unknown wait class"),
            ("scale:HALO", "scale:SECTION=FACTOR"),
            ("scale:=2", "empty section label"),
            ("scale:HALO=fast", "not a number"),
            ("scale:HALO=-1", ">= 0"),
            ("warp=9", "unknown what-if clause"),
            ("net=ideal,net=knl", "duplicate net="),
            ("scale:A=1,scale:A=2", "duplicate scale"),
        ] {
            let err = parse(spec).unwrap_err();
            assert!(err.contains(needle), "spec '{spec}': {err}");
        }
    }

    #[test]
    fn class_names_round_trip() {
        assert_eq!(WaitClass::LateSender.name(), "late-sender");
        assert_eq!(WaitClass::LateReceiver.name(), "late-receiver");
        assert_eq!(WaitClass::WaitAtCollective.name(), "wait-at-collective");
    }
}
