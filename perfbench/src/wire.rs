//! The line format a worker reports with.
//!
//! One unit is one line of space-separated `key=value` fields.  Floats are
//! written with Rust's shortest round-trip formatting, so air-time values
//! reach the coordinator bit for bit.

use std::collections::BTreeMap;

use crate::trace::Span;
use crate::workload::{SetupStats, UnitResult};

/// Encodes a unit result as one line (no newline).
pub fn encode_unit(index: usize, u: &UnitResult) -> String {
    let mut line = format!(
        "unit {index} host_ms={} failed={} delivered={} offered={} air_ms={} energy_j={} session_ms={}",
        u.host_ms,
        u.failed,
        u.delivered,
        u.offered,
        u.air_ms,
        u.energy_j,
        join(&u.session_ms),
    );
    for (name, value) in &u.counters {
        line.push_str(&format!(" c.{name}={value}"));
    }
    for s in &u.spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        line.push_str(&format!(
            " span={},{},{},{},{}",
            s.name, s.start_ns, s.end_ns, parent, s.session
        ));
    }
    for p in &u.problems {
        // Problems are free text; keep them one field.
        line.push_str(&format!(" problem={}", p.replace(' ', "\u{a0}")));
    }
    line
}

/// Decodes a line written by [`encode_unit`].
pub fn decode_unit(line: &str) -> Result<(usize, UnitResult), String> {
    let mut fields = line.split(' ');
    if fields.next() != Some("unit") {
        return Err(format!("not a unit line: {line}"));
    }
    let index = parse(fields.next().unwrap_or(""))?;
    let mut u = UnitResult::default();
    let mut counters = BTreeMap::new();
    for field in fields {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| format!("bad field {field}"))?;
        match key {
            "host_ms" => u.host_ms = parse(value)?,
            "failed" => u.failed = parse(value)?,
            "delivered" => u.delivered = parse(value)?,
            "offered" => u.offered = parse(value)?,
            "air_ms" => u.air_ms = parse(value)?,
            "energy_j" => u.energy_j = parse(value)?,
            "session_ms" => {
                u.session_ms = value.split(',').map(parse).collect::<Result<_, _>>()?;
            }
            "span" => u.spans.push(decode_span(value)?),
            "problem" => u.problems.push(value.replace('\u{a0}', " ")),
            _ => match key.strip_prefix("c.") {
                Some(name) => {
                    counters.insert(name.to_string(), parse(value)?);
                }
                None => return Err(format!("unknown field {key}")),
            },
        }
    }
    u.counters = counters;
    Ok((index, u))
}

fn decode_span(value: &str) -> Result<Span, String> {
    let parts: Vec<&str> = value.split(',').collect();
    let [name, start, end, parent, session] = parts[..] else {
        return Err(format!("bad span {value}"));
    };
    Ok(Span {
        name: name.to_string(),
        start_ns: parse(start)?,
        end_ns: parse(end)?,
        parent: if parent == "-" {
            None
        } else {
            Some(parse(parent)?)
        },
        session: parse(session)?,
    })
}

/// Encodes a worker's set-up report: seconds per set-up of each timed batch,
/// and the scenario-build figures of one set-up.
pub fn encode_setup(batches: &[f64], stats: &SetupStats) -> String {
    format!(
        "setup seconds={} build_ms={} builds={}",
        join(batches),
        stats.build_ms,
        stats.builds
    )
}

/// Decodes [`encode_setup`].
pub fn decode_setup(line: &str) -> Result<(Vec<f64>, SetupStats), String> {
    let rest = line
        .strip_prefix("setup ")
        .ok_or_else(|| format!("not a setup line: {line}"))?;
    let mut seconds = Vec::new();
    let mut stats = SetupStats::default();
    for field in rest.split(' ') {
        match field.split_once('=') {
            Some(("seconds", v)) => {
                seconds = v.split(',').map(parse).collect::<Result<_, _>>()?;
            }
            Some(("build_ms", v)) => stats.build_ms = parse(v)?,
            Some(("builds", v)) => stats.builds = parse(v)?,
            _ => return Err(format!("bad setup field {field}")),
        }
    }
    if seconds.is_empty() {
        return Err("setup line without set-up times".into());
    }
    Ok((seconds, stats))
}

fn join(values: &[f64]) -> String {
    values
        .iter()
        .map(f64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_round_trip_bit_for_bit() {
        let mut u = UnitResult {
            host_ms: 1.25,
            session_ms: vec![0.1 + 0.2, 3.0],
            failed: 1,
            delivered: 7,
            offered: 8,
            air_ms: std::f64::consts::PI,
            energy_j: 1e-7 / 3.0,
            problems: vec!["delivered 9 > offered 8".into()],
            ..UnitResult::default()
        };
        u.counters.insert("decode.slots".into(), 12.0);
        u.spans.push(Span {
            name: "ident.run".into(),
            start_ns: 5,
            end_ns: 9,
            parent: Some(0),
            session: 3,
        });
        let (index, back) = decode_unit(&encode_unit(3, &u)).unwrap();
        assert_eq!(index, 3);
        assert_eq!(back, u);
        assert_eq!(back.energy_j.to_bits(), u.energy_j.to_bits());
    }

    #[test]
    fn setup_round_trips() {
        let stats = SetupStats {
            build_ms: 3.5,
            builds: 4,
        };
        let (seconds, back) = decode_setup(&encode_setup(&[0.5, 0.25], &stats)).unwrap();
        assert_eq!(seconds, vec![0.5, 0.25]);
        assert_eq!(back, stats);
    }
}
