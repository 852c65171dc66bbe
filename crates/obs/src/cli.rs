//! What the workspace's command-line tools (`flex`, `flex-chaos`,
//! `flex-obs`) share: flag parsing, so each refuses a flag it does not
//! take instead of running its defaults, and one buffered stdout that a
//! reader may close early (`| head`) without a panic.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Write as _};

/// `writeln!` into a command's output buffer, a `String`, which cannot
/// fail to take it; [`print`] writes the buffer out.
#[macro_export]
macro_rules! say {
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($out, $($arg)*);
    }};
}

/// Writes a command's whole output to stdout at once. A reader that
/// closed the pipe early (`| head`, `| true`) has taken all it wants, so
/// a broken pipe ends the output quietly instead of panicking the way
/// `println!` does; any other write error is returned.
pub fn print(out: &str) -> std::io::Result<()> {
    let mut stdout = std::io::stdout().lock();
    match stdout.write_all(out.as_bytes()).and_then(|()| stdout.flush()) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(()),
        result => result,
    }
}

/// Parses `--flag value` pairs and bare `--switch`es (stored as `"1"`).
/// A flag in neither `valued` nor `bare` is an error.
pub fn parse_flags(
    args: &[String],
    valued: &[&str],
    bare: &[&str],
) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got '{arg}'"))?;
        let value = if bare.contains(&key) {
            "1".to_string()
        } else if valued.contains(&key) {
            args.next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone()
        } else {
            return Err(format!("unknown flag --{key}"));
        };
        flags.insert(key.to_string(), value);
    }
    Ok(flags)
}
