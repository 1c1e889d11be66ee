//! Deterministic exporters: JSON-lines event logs and Chrome
//! trace-event files.
//!
//! Both are pure string builders over already-collected telemetry —
//! library code never prints (`clippy::print_stdout`); callers
//! (the `repro` binary) decide where the bytes go.

use std::collections::BTreeMap;

use lucent_support::Json;

use crate::event::{Event, Span};

/// Render events as JSON lines: one compact object per line, trailing
/// newline included when non-empty.
pub fn event_log<'a>(events: impl Iterator<Item = &'a Event>) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json().to_string());
        out.push('\n');
    }
    out
}

/// Render spans as a Chrome trace-event file (the JSON object form with
/// a `traceEvents` array), loadable in `chrome://tracing` and Perfetto.
///
/// Virtual time maps directly onto the format's microsecond `ts`/`dur`
/// fields; each simulator node becomes one named thread track.
pub fn chrome_trace<'a>(
    spans: impl Iterator<Item = &'a Span>,
    thread_names: &BTreeMap<u64, String>,
) -> String {
    let mut events: Vec<Json> = thread_names
        .iter()
        .map(|(tid, name)| {
            Json::Obj(vec![
                ("name".into(), Json::Str("thread_name".to_string())),
                ("ph".into(), Json::Str("M".to_string())),
                ("pid".into(), Json::Int(0)),
                ("tid".into(), Json::UInt(*tid)),
                (
                    "args".into(),
                    Json::Obj(vec![("name".into(), Json::Str(name.clone()))]),
                ),
            ])
        })
        .collect();
    for s in spans {
        events.push(Json::Obj(vec![
            ("name".into(), Json::Str(s.name.to_string())),
            ("cat".into(), Json::Str(s.cat.to_string())),
            ("ph".into(), Json::Str("X".to_string())),
            ("ts".into(), Json::UInt(s.ts_us)),
            ("dur".into(), Json::UInt(s.dur_us)),
            ("pid".into(), Json::Int(0)),
            ("tid".into(), Json::UInt(s.tid)),
        ]));
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".to_string())),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::Level;

    #[test]
    fn event_log_is_one_object_per_line() {
        let events = [
            Event { at_us: 1, level: Level::Info, target: "a", name: "x", fields: vec![] },
            Event { at_us: 2, level: Level::Info, target: "b", name: "y", fields: vec![] },
        ];
        let log = event_log(events.iter());
        assert_eq!(log.lines().count(), 2);
        assert!(log.ends_with('\n'));
        for line in log.lines() {
            assert!(Json::parse(line).is_ok(), "unparseable line: {line}");
        }
        assert!(event_log(events[..0].iter()).is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_metadata_and_slices() {
        let spans = [Span { name: "deliver", cat: "netsim", ts_us: 10, dur_us: 5, tid: 3 }];
        let mut names = BTreeMap::new();
        names.insert(3u64, "client".to_string());
        let text = chrome_trace(spans.iter(), &names);
        let parsed = Json::parse(&text).expect("valid json");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("M"));
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[1].get("ts").and_then(Json::as_f64), Some(10.0));
    }
}
