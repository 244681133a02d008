//! Prometheus text exposition (format 0.0.4): [`check_text`], the
//! well-formedness gate the tests and CI run over `GET /metrics`. The route
//! itself renders the service's and the graph kernels' snapshots in
//! `qcm-http`, the one place that names their series.

/// Checks Prometheus text exposition for well-formedness: every sample
/// line must parse as `name[{labels}] value`, its metric must have been
/// declared by a preceding `# TYPE`, and the value must be a finite
/// number (or `+Inf`-bucket syntax inside labels, which this does not
/// affect). Returns the first offence.
pub fn check_text(text: &str) -> Result<(), String> {
    let mut declared: Vec<String> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: TYPE without a name"))?;
            let kind = parts
                .next()
                .ok_or_else(|| format!("line {lineno}: TYPE without a kind"))?;
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {lineno}: unknown TYPE kind {kind:?}"));
            }
            declared.push(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) = match line.find(['{', ' ']) {
            Some(i) if line.as_bytes()[i] == b'{' => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
                (&line[..i], line[close + 1..].trim())
            }
            Some(i) => (&line[..i], line[i + 1..].trim()),
            None => return Err(format!("line {lineno}: sample without a value")),
        };
        if name_part.is_empty()
            || !name_part
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {lineno}: bad metric name {name_part:?}"));
        }
        let base = name_part
            .strip_suffix("_bucket")
            .or_else(|| name_part.strip_suffix("_sum"))
            .or_else(|| name_part.strip_suffix("_count"))
            .unwrap_or(name_part);
        if !declared.iter().any(|d| d == name_part || d == base) {
            return Err(format!(
                "line {lineno}: sample {name_part:?} has no preceding # TYPE"
            ));
        }
        let numeric = value_part.parse::<f64>().map(|v| v.is_finite());
        if !matches!(numeric, Ok(true)) {
            return Err(format!(
                "line {lineno}: value {value_part:?} is not a finite number"
            ));
        }
    }
    if declared.is_empty() {
        return Err("no # TYPE declarations found".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_rejects_malformed_exposition() {
        assert!(check_text("").is_err(), "empty exposition");
        assert!(
            check_text("qcm_x 1\n").is_err(),
            "sample without # TYPE must fail"
        );
        assert!(
            check_text("# TYPE qcm_x counter\nqcm_x banana\n").is_err(),
            "non-numeric value must fail"
        );
        assert!(
            check_text("# TYPE qcm_x counter\nqcm-x 1\n").is_err(),
            "bad metric name must fail"
        );
        assert!(check_text("# TYPE qcm_x counter\nqcm_x 1\n").is_ok());
    }
}
