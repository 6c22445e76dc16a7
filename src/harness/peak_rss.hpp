// Process peak resident set size, the peak_rss_mib column of the bench
// scenarios.
#pragma once

namespace osched::harness {

/// Process peak RSS in MiB (getrusage's ru_maxrss; 0.0 where unsupported).
/// A high-water mark over the whole process lifetime, so it sizes the
/// largest case run so far, not the case just finished: scenarios order
/// their grids smallest-footprint first and read it under --jobs 1.
double peak_rss_mib();

}  // namespace osched::harness
