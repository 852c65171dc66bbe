//! Flag parsing shared by the workspace's command-line tools (`flex`,
//! `flex-chaos`, `flex-obs`), so each refuses a flag it does not take
//! instead of running its defaults.

use std::collections::BTreeMap;

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
