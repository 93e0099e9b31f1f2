//! The metadata stamped on every result: what ran, where, on which kernels.

use sourcesync::dsp::simd::SIMD_ENABLED;

/// Worker threads available to this process (the `par_map` width of the
/// `city` workload).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The receive-chain kernel tier the crates dispatch to at run time: the
/// same test `ssync_phy`'s Viterbi and demapper make.
pub fn kernel_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if SIMD_ENABLED && std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    if SIMD_ENABLED {
        "lanes"
    } else {
        "scalar"
    }
}

/// Cargo features this benchmark was built with.
pub fn features() -> &'static [&'static str] {
    if cfg!(feature = "simd") {
        &["simd"]
    } else {
        &[]
    }
}

/// The checkout's git revision, or `unknown` outside a git work tree.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The metadata as one JSON object.
pub fn json(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let features: Vec<String> = features().iter().map(|f| format!("\"{f}\"")).collect();
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"nproc\":{},\"kernel_tier\":\"{}\",\"features\":[{}],\"git_rev\":\"{}\"}}",
        nproc(),
        kernel_tier(),
        features.join(","),
        git_rev()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_names_every_field() {
        let m = json("rx", 3, 1.0, false);
        for key in [
            "\"seed\":3",
            "\"nproc\":",
            "\"kernel_tier\":",
            "\"features\":",
            "\"git_rev\":",
        ] {
            assert!(m.contains(key), "{key} missing from {m}");
        }
        assert!(["avx2", "lanes", "scalar"].contains(&kernel_tier()));
    }
}
