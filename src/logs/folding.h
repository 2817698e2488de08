// Domain folding (§IV-A): destinations are "folded" to their second-level
// domain (news.nbc.com -> nbc.com) on the assumption that the second level
// captures the responsible organization. For anonymized data without
// top-level information (LANL) the paper conservatively folds to the third
// level instead; the fold level is a parameter here.
#pragma once

#include <string>
#include <string_view>

namespace eid::logs {

/// Number of labels kept from the right when folding.
enum class FoldLevel { SecondLevel = 2, ThirdLevel = 3 };

/// Fold a domain name to the given level, lowercased. Multi-label public
/// suffixes that commonly appear in enterprise traffic (co.uk, com.au, ...)
/// keep one extra label so "news.bbc.co.uk" folds to "bbc.co.uk" rather
/// than "co.uk", in any letter case. Names with fewer labels than the fold
/// level are returned whole. Leading and trailing dots are dropped, and so
/// are the leading dots of the kept tail ("x..com" folds to "com").
/// Folding is idempotent: fold(fold(x)) == fold(x).
std::string fold_domain(std::string_view domain,
                        FoldLevel level = FoldLevel::SecondLevel);

/// fold_domain written into `out` (replacing its contents), so a reused
/// string keeps its capacity and folding allocates nothing.
void fold_domain_into(std::string_view domain, FoldLevel level,
                      std::string& out);

/// True if the last two labels of the domain are a two-label public suffix
/// (co.uk...), compared ASCII case-insensitively.
bool has_two_label_public_suffix(std::string_view domain);

}  // namespace eid::logs
