// Merging disjoint shard summaries back into a full-campaign summary.
//
// `clktune sweep --shard i/n` runs the expansion indices with
// idx % n == i and records the slice in its summary; this module is the
// inverse: given all n shard summaries it interleaves their cells back
// into expansion order and produces a summary byte-identical to the one an
// unsharded sweep of the same campaign would have written.  Backs
// `clktune report --merge`.
#pragma once

#include <vector>

#include "scenario/campaign.h"

namespace clktune::exec {

/// Merges the complete set of shard summaries of one campaign.  The inputs
/// may arrive in any order; the output covers the whole expansion with
/// shard_count 1 (so its JSON carries no "shard" member, like an unsharded
/// sweep).  Throws ExecError when the inputs are not exactly the n
/// disjoint shards of one campaign: mismatched names or shard counts,
/// duplicate (overlapping) shard indices, missing shards, or cell counts
/// inconsistent with a single expansion size.
scenario::CampaignSummary merge_shard_summaries(
    const std::vector<scenario::CampaignSummary>& shards);

}  // namespace clktune::exec
