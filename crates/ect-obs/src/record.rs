//! The wire schema of the telemetry sink: one serde-serialisable
//! [`Record`] per JSONL line.
//!
//! Every record kind is a named-field struct wrapped in an
//! externally-tagged enum variant, so a line reads
//! `{"Span":{"name":"run_dag.job", ...}}` — self-describing, greppable by
//! span name, and round-trippable through the workspace serde stack (the
//! `telemetry_determinism` suite pins the round trip).

use serde::{Deserialize, Serialize};

/// The run manifest: who produced this telemetry stream, under which
/// configuration. Written as the first record of every JSONL file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Session / experiment label (e.g. `run_all`).
    pub label: String,
    /// Master seed of the run's base configuration.
    pub seed: u64,
    /// Run scale label (`smoke` / `quick` / `paper`).
    pub scale: String,
    /// Worker-thread budget of the run.
    pub threads: usize,
    /// `git describe --always --dirty` of the producing checkout
    /// (`unknown` when git is unavailable).
    pub git_describe: String,
    /// `CARGO_PKG_VERSION` of the producing workspace.
    pub cargo_version: String,
}

impl Default for RunManifest {
    fn default() -> Self {
        Self {
            label: "session".into(),
            seed: 0,
            scale: "quick".into(),
            threads: 1,
            git_describe: "unknown".into(),
            cargo_version: env!("CARGO_PKG_VERSION").into(),
        }
    }
}

/// One completed span: a named, timed region of work with hierarchy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Span name (dotted, e.g. `run_dag.job`, `artifact.build`).
    pub name: String,
    /// Process-unique span id (1-based).
    pub id: u64,
    /// Id of the enclosing span on the same thread, `0` for roots.
    pub parent: u64,
    /// Small per-process thread id (1-based, assigned on first use).
    pub thread: u64,
    /// Global emission sequence number (total order over all records).
    pub seq: u64,
    /// Start offset from the telemetry epoch, microseconds.
    pub start_us: u64,
    /// Wall duration, microseconds.
    pub dur_us: u64,
    /// Duration minus the time spent in child spans, microseconds.
    pub self_us: u64,
    /// Free-form `key=value` annotations.
    pub fields: Vec<(String, String)>,
}

/// One point-in-time event (a progress message, a cache tier resolution).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Event name (dotted, e.g. `artifact.disk_hit`, `progress`).
    pub name: String,
    /// Small per-process thread id.
    pub thread: u64,
    /// Global emission sequence number.
    pub seq: u64,
    /// Offset from the telemetry epoch, microseconds.
    pub at_us: u64,
    /// Free-form `key=value` annotations.
    pub fields: Vec<(String, String)>,
}

/// Final value of one named counter (written at end of run).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterRecord {
    /// Counter name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// Final snapshot of one named histogram (written at end of run).
/// Buckets are sparse `(upper_bound, count)` pairs over the fixed
/// power-of-two grid of [`crate::metrics::Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramRecord {
    /// Histogram name.
    pub name: String,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub total: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

/// One line of the telemetry stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Record {
    /// The run manifest (first line of every stream).
    Manifest(RunManifest),
    /// A completed span.
    Span(SpanRecord),
    /// A point-in-time event.
    Event(EventRecord),
    /// An end-of-run counter value.
    Counter(CounterRecord),
    /// An end-of-run histogram snapshot.
    Histogram(HistogramRecord),
}

impl Record {
    /// The record's name, when it has one (spans, events, metrics).
    pub fn name(&self) -> Option<&str> {
        match self {
            Record::Manifest(_) => None,
            Record::Span(s) => Some(&s.name),
            Record::Event(e) => Some(&e.name),
            Record::Counter(c) => Some(&c.name),
            Record::Histogram(h) => Some(&h.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Characters a fuzzed line is drawn from: JSON structure, the record
    /// tags, digits, escapes and multi-byte scalars.
    const ALPHABET: &[&str] = &[
        "{", "}", "[", "]", "\"", ":", ",", " ", "\\", "\\u", "-", ".", "e", "0", "1", "9", "null",
        "true", "Manifest", "Span", "Counter", "name", "value", "é", "🦀", "\n",
    ];

    fn sample_counter_line() -> String {
        serde_json::to_string(&Record::Counter(CounterRecord {
            name: "cache.evictions".into(),
            value: 12,
        }))
        .unwrap()
    }

    #[test]
    fn every_record_kind_round_trips_through_serde() {
        let records = vec![
            Record::Manifest(RunManifest {
                label: "run_all".into(),
                seed: 42,
                scale: "smoke".into(),
                threads: 4,
                git_describe: "abc1234-dirty".into(),
                cargo_version: "0.1.0".into(),
            }),
            Record::Span(SpanRecord {
                name: "run_dag.job".into(),
                id: 3,
                parent: 1,
                thread: 2,
                seq: 17,
                start_us: 1_000,
                dur_us: 2_500,
                self_us: 2_100,
                fields: vec![("job".into(), "5".into()), ("id".into(), "fleet".into())],
            }),
            Record::Event(EventRecord {
                name: "artifact.disk_hit".into(),
                thread: 1,
                seq: 18,
                at_us: 3_500,
                fields: vec![("kind".into(), "generalist".into())],
            }),
            Record::Counter(CounterRecord {
                name: "dispatch.steals".into(),
                value: 9,
            }),
            Record::Histogram(HistogramRecord {
                name: "artifact.build_us".into(),
                count: 2,
                total: 300,
                buckets: vec![(127, 1), (255, 1)],
            }),
        ];
        for record in records {
            let line = serde_json::to_string(&record).unwrap();
            let back: Record = serde_json::from_str(&line).unwrap();
            assert_eq!(back, record, "{line}");
        }
    }

    #[test]
    fn record_names_identify_the_payload() {
        assert_eq!(Record::Manifest(RunManifest::default()).name(), None);
        assert_eq!(
            Record::Counter(CounterRecord {
                name: "cache.evictions".into(),
                value: 0
            })
            .name(),
            Some("cache.evictions")
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary lines never panic the JSONL decoder and never decode
        /// into a record.
        #[test]
        fn arbitrary_lines_are_rejected_without_panicking(
            picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..64),
        ) {
            let line: String = picks.iter().map(|&i| ALPHABET[i]).collect();
            prop_assert!(serde_json::from_str::<Record>(&line).is_err(), "{line}");
        }

        /// Arbitrary bytes, read as a line, are rejected the same way.
        #[test]
        fn arbitrary_bytes_are_rejected_without_panicking(
            bytes in proptest::collection::vec(0u16..256, 0..128),
        ) {
            let bytes: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
            let line = String::from_utf8_lossy(&bytes);
            prop_assert!(serde_json::from_str::<Record>(&line).is_err(), "{line}");
        }
    }

    #[test]
    fn truncated_record_lines_are_rejected() {
        let line = sample_counter_line();
        for cut in 0..line.len() {
            assert!(
                serde_json::from_str::<Record>(&line[..cut]).is_err(),
                "{}",
                &line[..cut]
            );
        }
    }
}
