//! Minimal flag parser (`--name value` options and boolean `--name`
//! switches) — no external dependency. Each command declares every switch
//! and option it reads; any other `--name` fails the parse, so a mistyped
//! or retired flag is an error before the command does any work.

use std::collections::HashMap;

/// Parsed `--key value` / `--flag` arguments.
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses raw arguments. `switches` lists the flags that take no value;
    /// `options` lists, in groups so commands can share a set, the flags
    /// that take one.
    pub fn parse(raw: &[String], switches: &[&str], options: &[&[&str]]) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let arg = &raw[i];
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{arg}`"));
            };
            if switches.contains(&name) {
                flags.push(name.to_string());
                i += 1;
            } else if options.iter().any(|group| group.contains(&name)) {
                let value = raw.get(i + 1).ok_or_else(|| format!("missing value for --{name}"))?;
                values.insert(name.to_string(), value.clone());
                i += 2;
            } else {
                return Err(format!("unknown option --{name} for this command (see `retia help`)"));
            }
        }
        Ok(Args { values, flags })
    }

    /// A required string option.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.values
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{name}"))
    }

    /// An optional string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// An optional parsed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad value for --{name}: {e}")),
        }
    }

    /// True if a boolean switch was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_values_and_flags() {
        let a = Args::parse(
            &raw(&["--data", "d", "--online", "--k", "4"]),
            &["online", "filtered"],
            &[&["data", "k", "missing"]],
        )
        .unwrap();
        assert_eq!(a.require("data").unwrap(), "d");
        assert!(a.flag("online"));
        assert_eq!(a.get_or("k", 0usize).unwrap(), 4);
        assert_eq!(a.get_or("missing", 7usize).unwrap(), 7);
        assert!(!a.flag("filtered"));
    }

    #[test]
    fn rejects_positional_and_dangling() {
        assert!(Args::parse(&raw(&["positional"]), &[], &[]).is_err());
        assert!(Args::parse(&raw(&["--data"]), &[], &[&["data"]]).is_err());
    }

    #[test]
    fn rejects_undeclared_flags_by_name() {
        // A misspelled option, an unknown option and a switch the command
        // does not declare all fail, naming the flag; every group is read.
        let (obs, own): (&[&str], &[&str]) = (&["log-level"], &["store", "port"]);
        for bad in
            [&["--store", "s", "--stroe", "s"][..], &["--retired", "x"][..], &["--online"][..]]
        {
            let err = Args::parse(&raw(bad), &[], &[own, obs]).err().expect("undeclared flag");
            let name = bad.iter().rev().find(|a| a.starts_with("--")).unwrap();
            assert!(err.contains(name), "`{err}` does not name {name}");
        }
        let ok = Args::parse(&raw(&["--port", "0", "--log-level", "off"]), &[], &[own, obs]);
        assert_eq!(ok.unwrap().get("log-level"), Some("off"));
    }

    #[test]
    fn require_reports_missing() {
        let a = Args::parse(&raw(&[]), &[], &[]).unwrap();
        assert!(a.require("data").unwrap_err().contains("--data"));
    }

    #[test]
    fn bad_numeric_value_reports() {
        let a = Args::parse(&raw(&["--k", "x"]), &[], &[&["k"]]).unwrap();
        assert!(a.get_or("k", 1usize).is_err());
    }
}
