//! §IV / §II-C — β-parallelism statistics of the application programs.
//!
//! The paper analyses inter-propagation parallelism in two real
//! programs: the PASS speech-understanding program (β between 2.8 and
//! 6) and the DMSNAP NLU program (β between 2.3 and 5). We run the same
//! static analysis over the reproduction's analogues: the speech-lattice
//! program and the compiled memory-based-parser programs.

use crate::output::{ratio, ExperimentOutput};
use crate::table::Table;
use crate::workloads::speech_program;
use snap_isa::analyze_beta;
use snap_nlu::{DomainSpec, MemoryBasedParser, SentenceGenerator};

/// Runs the analysis.
///
/// # Panics
///
/// Panics if knowledge-base construction fails.
pub fn run(quick: bool) -> ExperimentOutput {
    let kb_nodes = if quick { 1_000 } else { 6_000 };
    let kb = DomainSpec::sized(kb_nodes).build().expect("kb");

    // PASS analogue: a word lattice with 3–6 hypotheses per slot.
    let pass = speech_program(&kb, &[3, 5, 6, 4, 3, 6, 5]);
    let pass_stats = analyze_beta(&pass);

    // DMSNAP analogue: compiled parses of generated sentences.
    let parser = MemoryBasedParser::new(&kb);
    let mut generator = SentenceGenerator::new(&kb, 0xBE7A);
    let mut dm_min = usize::MAX;
    let mut dm_max = 0usize;
    let mut dm_avg = 0.0;
    let n_sentences = if quick { 3 } else { 10 };
    for _ in 0..n_sentences {
        let sentence = generator.generate(18);
        let plan = parser.compile(&parser.phrasal().parse(&sentence.words));
        let stats = analyze_beta(&plan.program);
        dm_min = dm_min.min(stats.beta_min());
        dm_max = dm_max.max(stats.beta_max());
        dm_avg += stats.beta_avg();
    }
    dm_avg /= n_sentences as f64;

    let mut table = Table::new(vec!["program", "β min", "β max", "β avg", "paper"]);
    table.row(vec![
        "PASS analogue (speech lattice)".into(),
        pass_stats.beta_min().to_string(),
        pass_stats.beta_max().to_string(),
        ratio(pass_stats.beta_avg()),
        "2.8 – 6".into(),
    ]);
    table.row(vec![
        "DMSNAP analogue (memory-based parser)".into(),
        dm_min.to_string(),
        dm_max.to_string(),
        ratio(dm_avg),
        "2.3 – 5".into(),
    ]);

    let mut out = ExperimentOutput::new("beta", "β-parallelism of the application programs");
    out.table("static overlap analysis", table);
    out.check(
        "speech program has more inter-propagation parallelism than the NLU parser \
         (paper: PASS > DMSNAP): ",
        pass_stats.beta_max() >= dm_max,
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn pass_beats_dmsnap() {
        crate::experiments::assert_quick_run_holds("beta");
    }
}
