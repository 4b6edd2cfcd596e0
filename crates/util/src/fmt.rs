//! Human-friendly number formatting for tables and reports.

/// Formats an integer with thousands separators: `6039312` → `"6,039,312"`.
pub fn thousands(n: u64) -> String {
    let digits = n.to_string();
    let bytes = digits.as_bytes();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, &b) in bytes.iter().enumerate() {
        if i > 0 && (bytes.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(b as char);
    }
    out
}

/// Formats a count compactly: `1_100_000` → `"1.1M"`, `3_000` → `"3.0K"`,
/// `7_600_000_000` → `"7.6B"`. Mirrors the style of Table 1 in the paper.
pub fn human_count(n: u64) -> String {
    let x = n as f64;
    if x >= 1e9 {
        format!("{:.1}B", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.1}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}K", x / 1e3)
    } else {
        format!("{n}")
    }
}

/// Formats a byte count: `404_000_000` → `"404.0MB"`.
pub fn human_bytes(n: u64) -> String {
    let x = n as f64;
    if x >= 1e9 {
        format!("{:.1}GB", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.1}MB", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}KB", x / 1e3)
    } else {
        format!("{n}B")
    }
}

/// Formats a duration in seconds adaptively (`µs`/`ms`/`s`).
pub fn human_seconds(s: f64) -> String {
    if !s.is_finite() {
        return "inf".to_string();
    }
    if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}min", s / 60.0)
    }
}

/// Formats a ratio as a percentage with two decimals, as in Table 1
/// (`0.5434` → `"54.34"`).
pub fn percent(x: f64) -> String {
    format!("{:.2}", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_groups_correctly() {
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(7), "7");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1_000), "1,000");
        assert_eq!(thousands(6_039_312), "6,039,312");
        assert_eq!(thousands(1_333_180), "1,333,180");
    }

    #[test]
    fn human_count_matches_paper_style() {
        assert_eq!(human_count(1_100_000), "1.1M");
        assert_eq!(human_count(2_900_000), "2.9M");
        assert_eq!(human_count(67_100), "67.1K");
        assert_eq!(human_count(7_600_000_000), "7.6B");
        assert_eq!(human_count(52), "52");
    }

    #[test]
    fn human_bytes_scales() {
        assert_eq!(human_bytes(500), "500B");
        assert_eq!(human_bytes(83_700_000), "83.7MB");
        assert_eq!(human_bytes(3_300_000_000), "3.3GB");
    }

    #[test]
    fn human_seconds_scales() {
        assert_eq!(human_seconds(0.0000005), "0.5us");
        assert_eq!(human_seconds(0.25), "250.0ms");
        assert_eq!(human_seconds(12.5), "12.50s");
        assert_eq!(human_seconds(600.0), "10.0min");
        assert_eq!(human_seconds(f64::INFINITY), "inf");
    }

    #[test]
    fn percent_two_decimals() {
        assert_eq!(percent(0.5434), "54.34");
        assert_eq!(percent(1.0), "100.00");
        assert_eq!(percent(0.0), "0.00");
    }
}
