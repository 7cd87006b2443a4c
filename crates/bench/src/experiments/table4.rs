//! Tables III & IV — execution times for MUC-4 sentences.
//!
//! The paper parses newswire sentences in real time: phrasal-parser time
//! (serial, KB-independent) plus memory-based-parser time measured at
//! two knowledge-base sizes (5K and 9K nodes). Total time grows roughly
//! proportionally to sentence length, and each sentence needs hundreds
//! of SNAP instructions with propagation paths of 10–15 steps.

use crate::output::{ms, ExperimentOutput};
use crate::table::Table;
use crate::workloads::parse_batch;
use snap_core::Snap1;
use snap_nlu::{DomainSpec, MemoryBasedParser, SentenceGenerator};

/// Runs the experiment.
///
/// # Panics
///
/// Panics if knowledge-base construction or parsing fails.
pub fn run(quick: bool) -> ExperimentOutput {
    let kb_sizes = if quick {
        vec![1_000, 2_000]
    } else {
        vec![5_000, 9_000]
    };
    let machine = Snap1::new(); // 16 clusters / 72 PEs, as in Section IV

    // Each KB size gets its own sentence set from the same seed: the
    // template-driven generator yields length-matched sentences, so the
    // cross-size comparison is apples-to-apples even though the derived
    // vocabularies differ.
    let mut mb_times: Vec<Vec<u64>> = vec![Vec::new(); kb_sizes.len()];
    let mut instr_counts: Vec<u64> = Vec::new();
    let mut depths: Vec<u8> = Vec::new();
    let mut pp_times: Vec<u64> = Vec::new();
    let mut sentences = Vec::new();

    for (k, &size) in kb_sizes.iter().enumerate() {
        let mut kb = DomainSpec::sized(size).build().expect("kb");
        let parser = MemoryBasedParser::new(&kb);
        let kb_ro = kb.clone();
        let set = SentenceGenerator::new(&kb_ro, 0x07AB0004).evaluation_set();
        for sentence in &set {
            let result = parser
                .parse(&mut kb.network, &machine, sentence)
                .expect("parse");
            mb_times[k].push(result.mb_time_ns);
            if k == 0 {
                pp_times.push(result.pp_time_ns);
                instr_counts.push(result.report.instruction_count());
                depths.push(result.report.max_propagation_depth);
            }
        }
        if k == 0 {
            sentences = set;
        }
    }

    let mut table = Table::new(vec![
        "input".to_string(),
        "words".to_string(),
        "instrs".to_string(),
        "max path".to_string(),
        "P.P. ms".to_string(),
        format!("M.B. ms ({}K)", kb_sizes[0] / 1000),
        format!("M.B. ms ({}K)", kb_sizes[1] / 1000),
        "total ms".to_string(),
    ]);
    for (i, sentence) in sentences.iter().enumerate() {
        table.row(vec![
            format!("S{}", i + 1),
            sentence.len().to_string(),
            instr_counts[i].to_string(),
            depths[i].to_string(),
            ms(pp_times[i]),
            ms(mb_times[0][i]),
            ms(mb_times[1][i]),
            ms(pp_times[i] + mb_times[1][i]),
        ]);
    }

    let total_first = pp_times[0] + mb_times[1][0];
    let total_last = pp_times[3] + mb_times[1][3];
    let len_ratio = sentences[3].len() as f64 / sentences[0].len() as f64;
    let time_ratio = total_last as f64 / total_first as f64;
    let real_time = pp_times
        .iter()
        .zip(&mb_times[1])
        .all(|(&pp, &mb)| pp + mb < 1_000_000_000);
    // The per-sentence KB-size comparison is noisy (sentences are
    // regenerated per KB); check the growth claim on a larger matched
    // batch instead.
    let batch_mean = |size: usize| -> f64 {
        let results = parse_batch(size, 8, &machine, 0x07AB0005).expect("probe batch");
        results.iter().map(|r| r.mb_time_ns as f64).sum::<f64>() / results.len() as f64
    };
    let mean_small = batch_mean(kb_sizes[0]);
    let mean_large = batch_mean(kb_sizes[1]);

    let mut out = ExperimentOutput::new("table4", "Execution times for MUC-4-like sentences");
    out.table("parse times per sentence and knowledge-base size", table);
    out.check("real-time (< 1 s/sentence): ", real_time);
    out.check(
        format!(
            "time grows with sentence length: S4/S1 length ×{len_ratio:.1}, time \
             ×{time_ratio:.1} — "
        ),
        time_ratio > 1.2,
    );
    out.check(
        format!(
            "M.B. time increases gradually with KB size (batch mean {:.2} → {:.2} ms): ",
            mean_small / 1e6,
            mean_large / 1e6,
        ),
        mean_large >= mean_small,
    );
    out.note(format!(
        "propagation path lengths (paper: 10–15 max): measured max {}",
        depths.iter().max().unwrap()
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn parse_times_scale_and_stay_real_time() {
        crate::experiments::assert_quick_run_holds("table4");
    }
}
