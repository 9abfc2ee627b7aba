//! Witness schedules: the serializable record of wildcard-match decisions.
//!
//! A [`Schedule`] is the complete list of wildcard-receive resolutions a
//! run made, in the order the simulator's deterministic scheduler made
//! them. Because everything else in a run is a pure function of the
//! program, the seed, the machine model and the engine, a schedule pins
//! the run exactly: feeding it back through a
//! [`ScheduleController`](crate::ScheduleController) reproduces the run
//! bit for bit. That is what makes a confirmed race *actionable* — the
//! two sides of the divergence are files you can replay, not a one-time
//! observation.
//!
//! The on-disk format is a small hand-rolled JSON document (this
//! workspace has no serde); [`Schedule::from_json`] reads it back through
//! the workspace's one parser, [`mpisim::jsoncheck::parse_json`].

use mpisim::jsoncheck::{parse_json, Json};

/// One resolved wildcard-receive matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// World rank of the receiver.
    pub receiver: usize,
    /// Index of this decision among the receiver's wildcard receives
    /// (its per-receiver "slot"), counting from zero in program order.
    pub slot: usize,
    /// The candidate set offered at match time: `(sender world rank,
    /// tag)` of the earliest queued message per distinct sender, in
    /// arrival order.
    pub candidates: Vec<(usize, i32)>,
    /// World rank of the sender whose message was (or must be) consumed.
    pub chosen: usize,
}

/// An ordered list of wildcard-match decisions — one run's complete
/// matching, or the forced prefix of an exploration run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    pub decisions: Vec<Decision>,
}

impl Schedule {
    /// Serialize to the `mpiverify-schedule-v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"format\":\"mpiverify-schedule-v1\",\"decisions\":[");
        for (i, d) in self.decisions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"receiver\":{},\"slot\":{},\"chosen\":{},\"candidates\":[",
                d.receiver, d.slot, d.chosen
            ));
            for (j, (src, tag)) in d.candidates.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{src},{tag}]"));
            }
            out.push_str("]}");
        }
        out.push_str("]}\n");
        out
    }

    /// Parse a `mpiverify-schedule-v1` document produced by
    /// [`Schedule::to_json`].
    pub fn from_json(text: &str) -> Result<Schedule, String> {
        let doc =
            parse_json(text).map_err(|pos| format!("schedule: invalid JSON at byte {pos}"))?;
        if !matches!(doc, Json::Obj(_)) {
            return Err("schedule: top level must be an object".into());
        }
        match doc.get("format").and_then(Json::as_str) {
            Some("mpiverify-schedule-v1") => {}
            Some(other) => return Err(format!("schedule: unknown format '{other}'")),
            None => return Err("schedule: missing \"format\" string".into()),
        }
        let decisions = doc
            .get("decisions")
            .and_then(Json::as_arr)
            .ok_or("schedule: missing \"decisions\" array")?;
        let mut out = Vec::with_capacity(decisions.len());
        for d in decisions {
            if !matches!(d, Json::Obj(_)) {
                return Err("schedule: decision must be an object".into());
            }
            let field = |name: &str| -> Result<usize, String> {
                d.get(name)
                    .and_then(Json::as_usize)
                    .ok_or_else(|| format!("schedule: decision missing integer \"{name}\""))
            };
            let mut candidates = Vec::new();
            for c in d
                .get("candidates")
                .and_then(Json::as_arr)
                .ok_or("schedule: decision missing \"candidates\" array")?
            {
                let pair = c
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or("schedule: candidate must be a [sender, tag] pair")?;
                let src = pair[0]
                    .as_usize()
                    .ok_or("schedule: candidate sender must be a non-negative integer")?;
                let tag = pair[1]
                    .as_i32()
                    .ok_or("schedule: candidate tag must be an integer")?;
                candidates.push((src, tag));
            }
            out.push(Decision {
                receiver: field("receiver")?,
                slot: field("slot")?,
                chosen: field("chosen")?,
                candidates,
            });
        }
        Ok(Schedule { decisions: out })
    }
}

/// Render a decision for human-facing reports (`r0/slot1: 2 of {1,2}`).
pub fn describe(d: &Decision) -> String {
    let senders: Vec<String> = d.candidates.iter().map(|(s, _)| s.to_string()).collect();
    format!(
        "r{}/slot{}: picked sender {} of {{{}}}",
        d.receiver,
        d.slot,
        d.chosen,
        senders.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        Schedule {
            decisions: vec![
                Decision {
                    receiver: 0,
                    slot: 0,
                    candidates: vec![(1, 7), (2, 7)],
                    chosen: 2,
                },
                Decision {
                    receiver: 0,
                    slot: 1,
                    candidates: vec![(1, 7)],
                    chosen: 1,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let s = sample();
        let json = s.to_json();
        mpisim::jsoncheck::assert_json(&json, "schedule");
        assert_eq!(Schedule::from_json(&json).unwrap(), s);
    }

    #[test]
    fn empty_roundtrip() {
        let s = Schedule::default();
        assert_eq!(Schedule::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn rejects_wrong_format() {
        let err = Schedule::from_json("{\"format\":\"bogus\",\"decisions\":[]}").unwrap_err();
        assert!(err.contains("unknown format"), "{err}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Schedule::from_json("not json").is_err());
        assert!(Schedule::from_json("{\"decisions\":[]}").is_err());
        assert!(Schedule::from_json("{\"format\":\"mpiverify-schedule-v1\"}").is_err());
    }
}
