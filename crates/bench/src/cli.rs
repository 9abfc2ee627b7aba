//! The one command-line layer behind `profile`, `study` and `figures`.
//!
//! A binary declares each flag once, as a [`Flag`] constant (name, operand
//! metavar, help line), lists the constants in a [`Cli`] and reads the
//! values back through the same constants, so the parser, the usage text
//! and the call sites cannot disagree on a spelling. Every command-line
//! fault — missing operand, non-numeric operand, unknown flag, and
//! whatever the binary's own validation rejects — is answered the same
//! way: one `error: ...` line plus the usage on stderr, exit code 2,
//! nothing on stdout.

use std::str::FromStr;

/// One row of a binary's flag table.
pub struct Flag {
    /// The flag as typed, e.g. `--p`.
    pub name: &'static str,
    /// Operand metavar (`N`, `FILE`, ...); `None` for a switch.
    pub operand: Option<&'static str>,
    /// One help line for the usage text.
    pub help: &'static str,
}

impl Flag {
    /// A flag that takes no operand.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            operand: None,
            help,
        }
    }

    /// A flag followed by one operand.
    pub const fn value(name: &'static str, operand: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            operand: Some(operand),
            help,
        }
    }
}

/// A binary's command line: what it is called with and every flag it
/// takes.
pub struct Cli<'a> {
    /// The usage line after `usage: `, e.g. `profile <conv|lulesh|race> [options]`.
    pub synopsis: &'a str,
    /// The flag table.
    pub flags: &'a [Flag],
    /// Free text after the flag table (targets, grammars); may be empty.
    pub notes: &'a str,
}

/// A parsed command line: bare arguments and flags, both in argv order.
#[derive(Debug)]
pub struct Parsed {
    /// Arguments that are not flags or operands.
    pub positionals: Vec<String>,
    given: Vec<(&'static str, Option<String>)>,
}

impl Cli<'_> {
    /// The usage text, rendered from the flag table.
    pub fn usage(&self) -> String {
        let left = |f: &Flag| match f.operand {
            Some(operand) => format!("{} {operand}", f.name),
            None => f.name.to_string(),
        };
        let width = self.flags.iter().map(|f| left(f).len()).max().unwrap_or(0);
        let mut out = format!("usage: {}\n\noptions:\n", self.synopsis);
        for f in self.flags {
            out.push_str(&format!("  {:<width$}  {}\n", left(f), f.help));
        }
        if !self.notes.is_empty() {
            out.push('\n');
            out.push_str(self.notes);
            out.push('\n');
        }
        out
    }

    /// Split `argv` (without the program name) against the flag table.
    pub fn parse(&self, argv: &[String]) -> Result<Parsed, String> {
        let mut parsed = Parsed {
            positionals: Vec::new(),
            given: Vec::new(),
        };
        let mut args = argv.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                parsed.positionals.push(arg.clone());
                continue;
            }
            let flag = self
                .flags
                .iter()
                .find(|f| f.name == arg)
                .ok_or_else(|| format!("unknown argument '{arg}'"))?;
            let operand = match flag.operand {
                Some(_) => Some(
                    args.next()
                        .ok_or_else(|| format!("{arg} requires a value"))?
                        .clone(),
                ),
                None => None,
            };
            parsed.given.push((flag.name, operand));
        }
        Ok(parsed)
    }

    /// Parse the process's own command line and hand it to `build`, the
    /// binary's own validation. With no arguments at all, print the
    /// usage; on any error, [`Cli::fail`].
    pub fn parse_env_or_exit<T>(&self, build: impl FnOnce(Parsed) -> Result<T, String>) -> T {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        if argv.is_empty() {
            eprint!("{}", self.usage());
            std::process::exit(2);
        }
        self.parse(&argv)
            .and_then(build)
            .unwrap_or_else(|e| self.fail(&e))
    }

    /// Report a command-line fault: `error: msg`, the usage, exit code 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprint!("error: {msg}\n{}", self.usage());
        std::process::exit(2);
    }
}

impl Parsed {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &Flag) -> bool {
        self.given.iter().any(|(name, _)| *name == flag.name)
    }

    /// Every operand given for `flag`, in argv order (a repeatable flag).
    pub fn all<'a>(&'a self, flag: &'a Flag) -> impl Iterator<Item = &'a str> {
        self.given
            .iter()
            .filter(move |(name, _)| *name == flag.name)
            .filter_map(|(_, operand)| operand.as_deref())
    }

    /// The operand of `flag`; the last one wins when it was repeated.
    pub fn get<'a>(&'a self, flag: &'a Flag) -> Option<&'a str> {
        self.all(flag).last()
    }

    /// The operand of `flag` as a number, or `default` when absent.
    pub fn num<T: FromStr>(&self, flag: &Flag, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("{} expects a number, got '{raw}'", flag.name)),
        }
    }

    /// The single bare argument a binary takes (`what` names it in the
    /// error); a second one is an unknown argument.
    pub fn only_positional(&self, what: &str) -> Result<&str, String> {
        match self.positionals.as_slice() {
            [] => Err(format!("missing {what}")),
            [one] => Ok(one),
            [_, extra, ..] => Err(format!("unknown argument '{extra}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: Flag = Flag::value("--n", "N", "a number (default 3)");
    const OUT: Flag = Flag::value("--out", "FILE", "a repeatable path");
    const FAST: Flag = Flag::switch("--fast", "a switch");
    const CLI: Cli<'static> = Cli {
        synopsis: "demo <thing> [options]",
        flags: &[N, OUT, FAST],
        notes: "things: a b",
    };

    fn parse(line: &str) -> Result<Parsed, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        CLI.parse(&argv)
    }

    #[test]
    fn flags_operands_and_positionals() {
        let p = parse("a --n 7 --fast --out x b --out y").unwrap();
        assert_eq!(p.positionals, ["a", "b"]);
        assert_eq!(p.num(&N, 3usize), Ok(7));
        assert!(p.has(&FAST));
        assert_eq!(p.all(&OUT).collect::<Vec<_>>(), ["x", "y"]);
        assert_eq!(p.get(&OUT), Some("y"));
        let p = parse("a").unwrap();
        assert_eq!(p.num(&N, 3usize), Ok(3));
        assert!(!p.has(&FAST) && p.get(&OUT).is_none());
        assert_eq!(p.only_positional("<thing>"), Ok("a"));
    }

    #[test]
    fn the_three_diagnostics() {
        assert_eq!(parse("a --n").unwrap_err(), "--n requires a value");
        assert_eq!(
            parse("a --bogus").unwrap_err(),
            "unknown argument '--bogus'"
        );
        assert_eq!(
            parse("a --n x").unwrap().num(&N, 3usize).unwrap_err(),
            "--n expects a number, got 'x'"
        );
        let two = parse("a b").unwrap();
        assert_eq!(
            two.only_positional("<thing>").unwrap_err(),
            "unknown argument 'b'"
        );
        let none = parse("--fast").unwrap();
        assert_eq!(
            none.only_positional("<thing>").unwrap_err(),
            "missing <thing>"
        );
    }

    #[test]
    fn usage_is_rendered_from_the_table() {
        let usage = CLI.usage();
        assert!(usage.starts_with("usage: demo <thing> [options]\n"));
        assert!(
            usage.contains("  --n N       a number (default 3)\n"),
            "{usage}"
        );
        assert!(usage.contains("  --fast      a switch\n"), "{usage}");
        assert!(usage.ends_with("\nthings: a b\n"));
    }
}
