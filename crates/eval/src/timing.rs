//! Duration formatting for the run-time comparison (Table VIII).

use std::time::Duration;

/// Formats a duration the way the paper's Table VIII does
/// (`s` / `min` / `h` / `d` units).
pub fn format_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs < 60.0 {
        format!("{secs:.2} s")
    } else if secs < 3600.0 {
        format!("{:.2} min", secs / 60.0)
    } else if secs < 86_400.0 {
        format!("{:.2} h", secs / 3600.0)
    } else {
        format!("{:.2} d", secs / 86_400.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_units() {
        assert_eq!(format_duration(Duration::from_secs_f64(3.33)), "3.33 s");
        assert_eq!(format_duration(Duration::from_secs(120)), "2.00 min");
        assert_eq!(format_duration(Duration::from_secs(7200)), "2.00 h");
        assert_eq!(format_duration(Duration::from_secs(172_800)), "2.00 d");
    }

    #[test]
    fn format_unit_boundaries() {
        // Just under / exactly at each unit rollover.
        assert_eq!(format_duration(Duration::from_secs_f64(59.9)), "59.90 s");
        assert_eq!(format_duration(Duration::from_secs(60)), "1.00 min");
        assert_eq!(format_duration(Duration::from_secs_f64(3599.4)), "59.99 min");
        assert_eq!(format_duration(Duration::from_secs(3600)), "1.00 h");
        assert_eq!(format_duration(Duration::from_secs(86_399)), "24.00 h");
        assert_eq!(format_duration(Duration::from_secs(86_400)), "1.00 d");
        assert_eq!(format_duration(Duration::ZERO), "0.00 s");
    }
}
