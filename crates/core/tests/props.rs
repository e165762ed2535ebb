//! Property-based tests for the scheduler's analytical models.

use easched_core::{Classifier, Objective, TimeModel, WorkloadClass};
use easched_runtime::Observation;
use easched_sim::CounterSnapshot;
use proptest::prelude::*;

proptest! {
    /// T(α) is minimized at α_PERF (Equation 2 is the argmin of Equation 4).
    #[test]
    fn alpha_perf_minimizes_time(
        r_c in 1e3..1e8f64,
        r_g in 1e3..1e8f64,
        n in 1u64..10_000_000,
    ) {
        let m = TimeModel::new(r_c, r_g);
        let t_opt = m.total_time(m.alpha_perf(), n);
        for i in 0..=20 {
            let a = i as f64 / 20.0;
            prop_assert!(m.total_time(a, n) >= t_opt * (1.0 - 1e-12));
        }
    }

    /// The combined phase never exceeds the total (Eq 1 vs Eq 4) and both
    /// scale linearly in N.
    #[test]
    fn combined_phase_bounds_and_scaling(
        r_c in 1e3..1e8f64,
        r_g in 1e3..1e8f64,
        alpha_step in 0usize..=10,
        n in 1u64..1_000_000,
    ) {
        let alpha = alpha_step as f64 / 10.0;
        let m = TimeModel::new(r_c, r_g);
        prop_assert!(m.combined_time(alpha, n) <= m.total_time(alpha, n) + 1e-12);
        let t1 = m.total_time(alpha, n);
        let t2 = m.total_time(alpha, 2 * n);
        prop_assert!((t2 - 2.0 * t1).abs() < 1e-9 * (1.0 + t1.abs()) * 2e6);
    }

    /// Endpoint times equal single-device times.
    #[test]
    fn endpoints_are_solo_times(r_c in 1e3..1e8f64, r_g in 1e3..1e8f64, n in 1u64..1_000_000) {
        let m = TimeModel::new(r_c, r_g);
        prop_assert!((m.total_time(0.0, n) - n as f64 / r_c).abs() < 1e-6 * (n as f64 / r_c));
        prop_assert!((m.total_time(1.0, n) - n as f64 / r_g).abs() < 1e-6 * (n as f64 / r_g));
    }

    /// Objectives are positive, monotone in both power and time.
    #[test]
    fn objectives_monotone(p in 0.1..200.0f64, t in 0.001..100.0f64, dp in 0.1..10.0f64, dt in 0.001..10.0f64) {
        for obj in [Objective::Energy, Objective::EnergyDelay, Objective::EnergyDelaySquared] {
            let base = obj.evaluate(p, t);
            prop_assert!(base > 0.0);
            prop_assert!(obj.evaluate(p + dp, t) > base);
            prop_assert!(obj.evaluate(p, t + dt) > base);
        }
        prop_assert!((Objective::Time.evaluate(p, t) - t).abs() < 1e-12);
    }

    /// `of_totals` is consistent with `evaluate` at the implied power.
    #[test]
    fn of_totals_consistent(e in 0.1..1e5f64, t in 0.001..1e3f64) {
        for obj in [Objective::Energy, Objective::EnergyDelay, Objective::Time] {
            let via_totals = obj.of_totals(e, t);
            let via_power = obj.evaluate(e / t, t);
            prop_assert!((via_totals - via_power).abs() < 1e-9 * (1.0 + via_power.abs()));
        }
    }

    /// Class index roundtrips and classification respects its thresholds.
    #[test]
    fn classification_thresholds(
        miss_ratio in 0.0..1.0f64,
        cpu_rate in 1e3..1e8f64,
        gpu_rate in 1e3..1e8f64,
        n in 1u64..10_000_000,
    ) {
        let c = Classifier::default();
        let obs = Observation {
            cpu_items: (cpu_rate * 0.01) as u64,
            gpu_items: (gpu_rate * 0.01) as u64,
            cpu_time: 0.01,
            gpu_time: 0.01,
            counters: CounterSnapshot {
                instructions: 1e6,
                loads: 1e5,
                l3_misses: 1e5 * miss_ratio,
            },
            ..Default::default()
        };
        prop_assume!(obs.cpu_items > 0 && obs.gpu_items > 0);
        let class = c.classify(&obs, n);
        prop_assert_eq!(class.memory_bound, miss_ratio > c.memory_threshold);
        prop_assert_eq!(class.cpu_short, n as f64 / obs.cpu_rate() <= c.short_threshold);
        prop_assert_eq!(class.gpu_short, n as f64 / obs.gpu_rate() <= c.short_threshold);
        prop_assert_eq!(WorkloadClass::from_index(class.index()), class);
    }
}

mod persist_props {
    use easched_core::persist::{
        model_from_text, model_to_text, table_from_text, table_to_text, ModelParseError,
    };
    use easched_core::{
        Accumulation, AlphaStat, BreakerState, KernelTable, PowerCurve, PowerModel, WorkloadClass,
    };
    use easched_num::Polynomial;
    use proptest::prelude::*;

    fn sample_model() -> PowerModel {
        let curves: Vec<PowerCurve> = WorkloadClass::all()
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                PowerCurve::new(
                    c,
                    Polynomial::new(vec![30.0 + i as f64, -0.5, 2.25]),
                    0.1 * i as f64,
                    21,
                )
            })
            .collect();
        PowerModel::new("prop-platform", curves)
    }

    fn sample_table() -> KernelTable {
        let t = KernelTable::new();
        t.accumulate(3, 0.25, 1_000.0, Accumulation::SampleWeighted);
        t.accumulate(7, 2.0 / 3.0, 50_000.0, Accumulation::SampleWeighted);
        t.accumulate(900, 1.0, 1e9, Accumulation::SampleWeighted);
        t.note_reuse(7);
        t.taint(900);
        t
    }

    fn sample_table_text() -> String {
        table_to_text(&sample_table(), BreakerState::Open, 5)
    }

    /// A parsed table file as comparable plain values.
    type TableState = (Vec<(u64, AlphaStat, bool)>, BreakerState, u64);

    fn parsed(text: &str) -> Result<TableState, ModelParseError> {
        table_from_text(text).map(|(t, b, g)| (t.snapshot_with_taint(), b, g))
    }

    /// Byte offset where the trailing checksum line starts (exclusive end
    /// of the digest-covered region).
    fn covered_len(text: &str) -> usize {
        text.rfind("\nchecksum ").unwrap() + 1
    }

    proptest! {
        /// Any well-formed model round-trips through the text format with
        /// bit-exact curve predictions.
        #[test]
        fn persistence_roundtrips_arbitrary_models(
            coeffs in prop::collection::vec(
                prop::collection::vec(-1e4..1e4f64, 1..8),
                8,
            ),
            rmses in prop::collection::vec(0.0..10.0f64, 8),
        ) {
            let curves: Vec<PowerCurve> = WorkloadClass::all()
                .into_iter()
                .zip(coeffs.iter().zip(&rmses))
                .map(|(class, (cs, &rmse))| {
                    PowerCurve::new(class, Polynomial::new(cs.clone()), rmse, 21)
                })
                .collect();
            let model = PowerModel::new("prop-platform", curves);
            let back = model_from_text(&model_to_text(&model)).unwrap();
            prop_assert_eq!(back.platform_name(), model.platform_name());
            for class in WorkloadClass::all() {
                prop_assert_eq!(
                    back.curve(class).poly().coeffs(),
                    model.curve(class).poly().coeffs()
                );
                for i in 0..=10 {
                    let a = i as f64 / 10.0;
                    prop_assert_eq!(back.predict(class, a), model.predict(class, a));
                }
            }
        }

        /// Truncating a file never panics: it either fails cleanly or (when
        /// the cut happens to land on a token boundary of the last line)
        /// still yields a structurally valid eight-curve model.
        #[test]
        fn truncated_files_never_panic(cut in 0usize..400) {
            let curves: Vec<PowerCurve> = WorkloadClass::all()
                .into_iter()
                .map(|c| PowerCurve::new(c, Polynomial::constant(42.0), 0.1, 21))
                .collect();
            let text = model_to_text(&PowerModel::new("p", curves));
            let truncated: String = text.chars().take(cut.min(text.len())).collect();
            match model_from_text(&truncated) {
                Ok(model) => prop_assert_eq!(model.curves().len(), 8),
                Err(e) => prop_assert!(!e.to_string().is_empty()),
            }
            // Dropping a whole curve line must always fail.
            let missing_line: String = text.lines().take(9).collect::<Vec<_>>().join("\n");
            prop_assert!(model_from_text(&missing_line).is_err());
        }

        /// Flipping any low bit of any byte never panics the model parser,
        /// and a flip inside the digest-covered body is always rejected
        /// (the FNV-1a per-byte step is injective). A flip that still
        /// parses (e.g. whitespace churn on the checksum line itself) must
        /// yield the identical model.
        #[test]
        fn model_bit_flips_detected_or_harmless(pos in 0usize..4096, bit in 0u32..7) {
            let model = sample_model();
            let text = model_to_text(&model);
            prop_assume!(text.is_ascii());
            let pos = pos % text.len();
            let mut bytes = text.clone().into_bytes();
            bytes[pos] ^= 1 << bit; // low 7 bits: stays ASCII, stays UTF-8
            let mutated = String::from_utf8(bytes).unwrap();
            match model_from_text(&mutated) {
                Ok(back) => prop_assert_eq!(back, model),
                Err(e) => prop_assert!(!e.to_string().is_empty()),
            }
            if pos < covered_len(&text) {
                prop_assert!(model_from_text(&mutated).is_err(), "body flip at {} accepted", pos);
            }
        }

        /// Same guarantee for the kernel table: arbitrary single-bit
        /// corruption is either rejected or provably harmless.
        #[test]
        fn table_bit_flips_detected_or_harmless(pos in 0usize..4096, bit in 0u32..7) {
            let text = sample_table_text();
            prop_assume!(text.is_ascii());
            let pos = pos % text.len();
            let mut bytes = text.clone().into_bytes();
            bytes[pos] ^= 1 << bit;
            let mutated = String::from_utf8(bytes).unwrap();
            match parsed(&mutated) {
                Ok(back) => prop_assert_eq!(back, parsed(&text).unwrap()),
                Err(e) => prop_assert!(!e.to_string().is_empty()),
            }
            if pos < covered_len(&text) {
                prop_assert!(table_from_text(&mutated).is_err(), "body flip at {} accepted", pos);
            }
        }

        /// Truncating a table file at any byte never panics; anything short
        /// of the full file either fails (usually [`ModelParseError::MissingChecksum`])
        /// or — only when the cut merely drops trailing whitespace — parses
        /// to the identical state.
        #[test]
        fn table_truncation_detected_or_harmless(cut in 0usize..4096) {
            let text = sample_table_text();
            let cut = cut % (text.len() + 1);
            match parsed(&text[..cut]) {
                Ok(back) => prop_assert_eq!(back, parsed(&text).unwrap()),
                Err(e) => prop_assert!(!e.to_string().is_empty()),
            }
            // Cutting into the digest-covered body can never parse.
            if cut < covered_len(&text) {
                prop_assert!(table_from_text(&text[..cut]).is_err());
            }
        }

        /// Reordering records without resealing is detected by the v3
        /// checksum; the same reorder of the kernel records in a legacy v1
        /// file parses to the same table (records are order-independent).
        #[test]
        fn reordered_records_detected_in_v3_tolerated_in_v1(i in 0usize..5, j in 0usize..5) {
            let text = sample_table_text();
            let mut lines: Vec<&str> = text.lines().collect();
            // lines[0] is the header, last is the checksum; swap the
            // generation, breaker and kernel records between them.
            lines.swap(1 + i, 1 + j);
            let swapped = format!("{}\n", lines.join("\n"));
            if i == j {
                prop_assert!(table_from_text(&swapped).is_ok());
            } else {
                let mismatch = matches!(
                    table_from_text(&swapped),
                    Err(ModelParseError::ChecksumMismatch { .. })
                );
                prop_assert!(mismatch, "swap {} <-> {} not flagged", i, j);
            }
            // Legacy v1: no digest, so order legitimately does not matter.
            // Its records are the kernel lines without their taint field.
            let kernels: Vec<&str> = lines
                .iter()
                .filter(|l| l.starts_with("kernel "))
                .filter_map(|l| l.rsplit_once(" tainted "))
                .map(|(entry, _)| entry)
                .collect();
            let v1 = format!("easched-kernel-table v1\n{}\n", kernels.join("\n"));
            prop_assert_eq!(table_from_text(&v1).unwrap().0.snapshot(), sample_table().snapshot());
        }
    }
}

mod sealed_line_props {
    use easched_core::{push_sanitized, seal_line, seal_tail, unseal_line};
    use proptest::prelude::*;

    /// Letters, separators and multi-byte characters, whitespace of
    /// several widths included.
    const ALPHABET: [char; 10] = [
        'a', 'Z', '_', '-', ' ', '\t', '\n', '\u{a0}', '\u{3000}', 'é',
    ];

    fn text(indices: &[usize]) -> String {
        indices.iter().map(|&i| ALPHABET[i]).collect()
    }

    proptest! {
        /// The one sealed-line codec every log shares: a sealed body
        /// round-trips (with or without its newline, with the digest in
        /// either case), every strict truncation of the sealed line is
        /// rejected, and a single bit flip anywhere either rejects or
        /// decodes to the very same body — never to a different one.
        #[test]
        fn sealed_lines_round_trip_and_reject_damage(
            bytes in prop::collection::vec(32u8..127, 0..64),
            pos in any::<u64>(),
            bit in 0u8..8,
        ) {
            let body = String::from_utf8(bytes).unwrap();
            let mut line = String::new();
            seal_line(&mut line, &body);
            prop_assert!(line.ends_with('\n'));
            prop_assert_eq!(unseal_line(&line), Some(body.as_str()));
            let sealed = &line[..line.len() - 1];
            prop_assert_eq!(unseal_line(sealed), Some(body.as_str()));
            let (covered, hex) = sealed.rsplit_once(" crc ").unwrap();
            let upper = format!("{covered} crc {}", hex.to_uppercase());
            prop_assert_eq!(unseal_line(&upper), Some(body.as_str()));

            for cut in 0..sealed.len() {
                prop_assert!(unseal_line(&sealed[..cut]).is_none(), "prefix {} decoded", cut);
            }

            let mut flipped = line.clone().into_bytes();
            let pos = (pos as usize) % flipped.len();
            flipped[pos] ^= 1 << bit;
            if let Ok(text) = String::from_utf8(flipped) {
                if let Some(decoded) = unseal_line(&text) {
                    prop_assert_eq!(decoded, body.as_str(), "flip at {} bit {}", pos, bit);
                }
            }
        }

        /// Sealing in place after an arbitrary prefix leaves the prefix
        /// alone and appends exactly the bytes `seal_line` appends.
        #[test]
        fn seal_tail_matches_seal_line(
            prefix in prop::collection::vec(0..ALPHABET.len(), 0..24),
            body in prop::collection::vec(0..ALPHABET.len(), 0..48),
        ) {
            let prefix = text(&prefix);
            let body = text(&body).replace('\n', " ");
            let mut expected = prefix.clone();
            seal_line(&mut expected, &body);
            let mut in_place = prefix.clone();
            in_place.push_str(&body);
            seal_tail(&mut in_place, prefix.len());
            prop_assert_eq!(in_place, expected);
        }

        /// The shared sanitizer squashes each whitespace character to one
        /// `_`, exactly like `str::replace`, and appends in place.
        #[test]
        fn push_sanitized_matches_replace(
            prefix in prop::collection::vec(0..ALPHABET.len(), 0..8),
            s in prop::collection::vec(0..ALPHABET.len(), 0..32),
        ) {
            let (prefix, s) = (text(&prefix), text(&s));
            let mut out = prefix.clone();
            push_sanitized(&mut out, &s);
            prop_assert_eq!(out, format!("{prefix}{}", s.replace(char::is_whitespace, "_")));
        }
    }
}
