// Package eval is the declarative scenario harness behind ppdm-eval and the
// repository's one experiment harness: it turns the paper's E1–E13
// evaluation figures, every examples/ workload, and any future scenario
// into one regression-gated suite.
//
// A scenario is a JSON file (see Spec) declaring a workload of one of four
// kinds — classify (perturb → reconstruct → learn → evaluate), reconstruct
// (the §3.2 distribution-recovery series over synth's plateau, triangles
// and bimodal shapes), assoc (frequent-itemset mining over randomized
// transactions, generated or read from a transaction file with
// assoc.file), and response (Warner randomized-response prevalence
// estimation) — plus per-metric gates. A relative data file resolves
// against the scenario file's directory. Loading is strict:
// unknown fields are rejected and malformed JSON yields positional
// (file:line:col) errors, so a typo in a scenario cannot silently widen a
// gate.
//
// Run executes the scenario matrix in parallel on internal/parallel and
// emits a Report comparing each scenario's metrics against the committed
// baselines under eval/baselines/*.json:
//
//   - accuracy — classification accuracy on clean test data (classify), or
//     itemset-recovery F1 score (assoc)
//   - privacy — the paper's §2.2 confidence-interval privacy level achieved
//     by the scenario's noise (mean across perturbed attributes), the
//     randomization level 2f of a bit-flip channel (assoc), or the
//     misreport probability of a randomized-response channel (response)
//   - fidelity — reconstruction fidelity as the total-variation distance of
//     the reconstructed distribution to the true one (mean across perturbed
//     attributes for classify; the final series point for reconstruct; mean
//     absolute support error for assoc, over the planted patterns or, for a
//     transaction file, the itemsets frequent in the clean file;
//     estimated-vs-true prevalence distance for response). Lower is better.
//   - iterations — reconstruction iteration count summed over the series
//     (reconstruct only; pins the E1/E2 warm-start behaviour)
//   - throughput — records per second through the scenario's dominant
//     stage. Unlike every other metric, throughput is measured wall-clock:
//     it is machine-dependent, excluded from the determinism contract and
//     from deterministic report renderings, and only gated when a scenario
//     explicitly asks (Gate.MinRatio).
//
// Gates follow the repository's determinism contract: every metric except
// throughput is a pure function of the scenario spec, the seeds inside it,
// and the run scale — never of the worker count — so a Report rendered
// without timings is byte-identical at Workers 1 and 64, and exact
// baselines recorded on one machine gate runs on another.
//
// Baselines are per-scale: a BaselinePoint is committed for each scale the
// suite is expected to gate at (CI smokes the corpus at -scale 0.1;
// developers regenerate with `ppdm-eval -update -scale <s>` after an
// intentional metric change and commit the diff).
package eval
