// Package observe derives the observatory's report from what a run left
// behind: the half of the paper's <O,I,S,T,P> control tuple that turns the
// sampled outputs O into something an operator reads. From the per-LP trace
// and the run record it builds:
//
//   - the virtual-time roughness timeline — the spread of local virtual times
//     across LPs (Korniss et al. show this "surface width" governs optimistic
//     scalability), sampled by the kernel at every GVT application from the
//     LPs' progress records and recorded in the tracer's system ring;
//   - rollback-depth histograms and wasted-work ratios;
//   - causal rollback attribution — linking each anti-message-induced
//     rollback to the rollback that emitted the anti-message, so cascades
//     form trees whose cost can be aggregated (see cascade.go).
//
// The package owns no format and runs nothing beside a simulation: a Report
// is derived from events and a run record already in memory —
// telemetry.ReadJSONL reads a trace file, stats.ReadRunRecord an artifact.
package observe
