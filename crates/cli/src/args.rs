//! A small, dependency-free command-line argument parser.
//!
//! Grammar: `anycast <command> [--flag value]... [--switch]...`.
//! Each command declares its flags once, in a table of [`Flag`]s that
//! both the parser and the help read. Flags take exactly one value;
//! switches take none. Undeclared flags are errors (a typo must never
//! silently run a long simulation with defaults).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::str::FromStr;

/// One flag a command accepts.
#[derive(Debug)]
pub struct Flag {
    /// The name, without `--`.
    pub name: &'static str,
    /// The value's shape in the help, e.g. `SECS`; `None` for a switch.
    pub value: Option<&'static str>,
    /// The help text; a `\n` continues it on the next help line.
    pub help: &'static str,
}

/// A command's flags, in groups shared between commands; a flag appears
/// in one group of a table.
pub type Table = &'static [&'static [Flag]];

/// The flag `table` declares as `name`.
fn lookup(table: Table, name: &str) -> Option<&'static Flag> {
    table
        .iter()
        .flat_map(|group| group.iter())
        .find(|f| f.name == name)
}

/// Parsed arguments for one subcommand.
#[derive(Debug)]
pub struct Args {
    flags: BTreeMap<String, String>,
    switches: BTreeSet<String>,
    table: Table,
}

impl Args {
    /// Parses raw arguments against `table`: its switches take no value,
    /// every other `--name` expects one.
    ///
    /// # Errors
    ///
    /// A human-readable message for stray positionals, missing values,
    /// duplicate flags, or a flag `table` does not declare.
    pub fn parse<I>(raw: I, table: Table) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut flags = BTreeMap::new();
        let mut switches = BTreeSet::new();
        let mut iter = raw.into_iter();
        while let Some(token) = iter.next() {
            let Some(name) = token.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{token}`"));
            };
            if name.is_empty() {
                return Err("empty flag `--`".to_string());
            }
            if lookup(table, name).is_some_and(|f| f.value.is_none()) {
                if !switches.insert(name.to_string()) {
                    return Err(format!("switch --{name} given twice"));
                }
                continue;
            }
            let Some(value) = iter.next() else {
                return Err(format!("flag --{name} expects a value"));
            };
            if flags.insert(name.to_string(), value).is_some() {
                return Err(format!("flag --{name} given twice"));
            }
        }
        // Checked only once every token is read, so a retired flag given
        // without a value still reads as a flag missing its value.
        for name in flags.keys().chain(&switches) {
            if lookup(table, name).is_none() {
                return Err(format!("unknown flag --{name} for this command"));
            }
        }
        Ok(Args {
            flags,
            switches,
            table,
        })
    }

    /// Returns an optional flag parsed as `T`.
    ///
    /// # Errors
    ///
    /// When present but unparsable.
    pub fn get<T>(&self, name: &str) -> Result<Option<T>, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        self.get_str(name)
            .map(|raw| {
                raw.parse()
                    .map_err(|e| format!("--{name}: cannot parse `{raw}`: {e}"))
            })
            .transpose()
    }

    /// Returns a required flag parsed as `T`.
    ///
    /// # Errors
    ///
    /// When missing or unparsable.
    pub fn require<T>(&self, name: &str) -> Result<T, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        self.get(name)?
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Returns an optional flag parsed as `T`, or `default`.
    ///
    /// # Errors
    ///
    /// When present but unparsable.
    pub fn get_or<T>(&self, name: &str, default: T) -> Result<T, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        Ok(self.get(name)?.unwrap_or(default))
    }

    /// Returns an optional flag's raw string.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.assert_declared(name);
        self.flags.get(name).map(String::as_str)
    }

    /// Whether a switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.assert_declared(name);
        self.switches.contains(name)
    }

    /// A getter reads only names its command declares; any other is a
    /// bug in the command, not a user error.
    fn assert_declared(&self, name: &str) {
        debug_assert!(
            lookup(self.table, name).is_some(),
            "--{name} is not declared"
        );
    }
}

/// Parses a comma-separated list of `u32` node ids.
///
/// # Errors
///
/// On any non-integer element or an empty list.
pub fn parse_id_list(raw: &str) -> Result<Vec<u32>, String> {
    let ids: Result<Vec<u32>, _> = raw
        .split(',')
        .map(|part| part.trim().parse::<u32>())
        .collect();
    let ids = ids.map_err(|e| format!("bad node list `{raw}`: {e}"))?;
    if ids.is_empty() {
        return Err("node list is empty".to_string());
    }
    Ok(ids)
}

/// Parses a sweep range `start:end:step` (inclusive ends) or a single
/// number, into the list of values.
///
/// # Errors
///
/// On malformed syntax, non-positive step, or an empty range.
pub fn parse_range(raw: &str) -> Result<Vec<f64>, String> {
    let parts: Vec<&str> = raw.split(':').collect();
    match parts.as_slice() {
        [single] => {
            let v: f64 = single
                .parse()
                .map_err(|e| format!("bad number `{single}`: {e}"))?;
            Ok(vec![v])
        }
        [start, end, step] => {
            let (start, end, step): (f64, f64, f64) = (
                start.parse().map_err(|e| format!("bad start: {e}"))?,
                end.parse().map_err(|e| format!("bad end: {e}"))?,
                step.parse().map_err(|e| format!("bad step: {e}"))?,
            );
            if step <= 0.0 || step.is_nan() {
                return Err("range step must be positive".to_string());
            }
            if end < start {
                return Err("range end precedes start".to_string());
            }
            let mut out = Vec::new();
            let mut v = start;
            while v <= end + 1e-9 {
                out.push(v);
                v += step;
            }
            Ok(out)
        }
        _ => Err(format!("range `{raw}` must be NUM or START:END:STEP")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::{flag, switch};

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    const TABLE: Table = &[&[
        flag("lambda", "RATE", ""),
        flag("seed", "N", ""),
        flag("a", "X", ""),
        flag("flag", "X", ""),
        switch("quick", ""),
        switch("full", ""),
        switch("q", ""),
    ]];

    #[test]
    fn parses_flags_and_switches() {
        let a = Args::parse(strs(&["--lambda", "20", "--quick", "--seed", "7"]), TABLE).unwrap();
        assert_eq!(a.require::<f64>("lambda").unwrap(), 20.0);
        assert_eq!(a.get_or::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(a.get::<u64>("a").unwrap(), None);
        assert!(a.switch("quick"));
        assert!(!a.switch("full"));
    }

    #[test]
    fn rejects_unknown_flags_after_tokenising() {
        let err = Args::parse(strs(&["--oops", "1"]), TABLE).unwrap_err();
        assert_eq!(err, "unknown flag --oops for this command");
        // A switch of another command is just as unknown here.
        let err = Args::parse(strs(&["--seed", "1", "--check"]), TABLE).unwrap_err();
        assert_eq!(err, "flag --check expects a value");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Args::parse(strs(&["positional"]), TABLE).is_err());
        assert!(Args::parse(strs(&["--flag"]), TABLE).is_err());
        assert!(Args::parse(strs(&["--a", "1", "--a", "2"]), TABLE).is_err());
        assert!(Args::parse(strs(&["--q", "--q"]), TABLE).is_err());
        assert!(Args::parse(strs(&["--"]), TABLE).is_err());
    }

    #[test]
    fn missing_required_flag() {
        let a = Args::parse(strs(&[]), TABLE).unwrap();
        let err = a.require::<f64>("lambda").unwrap_err();
        assert!(err.contains("--lambda"));
    }

    #[test]
    fn unparsable_value() {
        let a = Args::parse(strs(&["--lambda", "abc"]), TABLE).unwrap();
        assert!(a.require::<f64>("lambda").is_err());
        assert!(a.get::<f64>("lambda").is_err());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "--window is not declared")]
    fn reading_an_undeclared_flag_is_a_bug() {
        let a = Args::parse(strs(&[]), TABLE).unwrap();
        let _ = a.get::<f64>("window");
    }

    #[test]
    fn id_lists() {
        assert_eq!(parse_id_list("0,4, 8").unwrap(), vec![0, 4, 8]);
        assert!(parse_id_list("0,x").is_err());
        assert!(parse_id_list("").is_err());
    }

    #[test]
    fn ranges() {
        assert_eq!(parse_range("5").unwrap(), vec![5.0]);
        assert_eq!(parse_range("5:20:5").unwrap(), vec![5.0, 10.0, 15.0, 20.0]);
        assert!(parse_range("5:20").is_err());
        assert!(parse_range("5:20:0").is_err());
        assert!(parse_range("20:5:5").is_err());
        assert!(parse_range("a:b:c").is_err());
    }
}
