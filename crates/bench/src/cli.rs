//! Flag parsing the fleet bench binaries share. Each helper takes the
//! flag's value (`None` when the command line ends first) and exits
//! with status 2 and a usage message when it is missing or malformed.

use pcnna_fleet::prelude::ChaosKind;

/// Prints `message` to stderr and exits with status 2.
pub fn usage(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Parses the value of `--seed`.
#[must_use]
pub fn seed(value: Option<String>) -> u64 {
    value
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage("--seed needs an integer"))
}

/// Parses the value of `--scenario` as a chaos kind, listing the known
/// names when it is not one.
#[must_use]
pub fn chaos_kind(value: Option<String>) -> ChaosKind {
    let name = value.unwrap_or_default();
    ChaosKind::from_name(&name).unwrap_or_else(|| {
        let known: Vec<&str> = ChaosKind::ALL.iter().map(|k| k.name()).collect();
        usage(&format!(
            "unknown scenario {name:?}; known: {}",
            known.join(", ")
        ))
    })
}

/// Parses a count flag's value, exiting with `message` unless it is an
/// integer of at least 1.
#[must_use]
pub fn count<T: std::str::FromStr + PartialEq + Default>(
    value: Option<String>,
    message: &str,
) -> T {
    match value.and_then(|s| s.parse::<T>().ok()) {
        Some(n) if n != T::default() => n,
        _ => usage(message),
    }
}
