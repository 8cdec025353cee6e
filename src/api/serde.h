#ifndef SIGSUB_API_SERDE_H_
#define SIGSUB_API_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "api/query.h"
#include "common/result.h"

namespace sigsub {
namespace api {

/// Canonical serialization of QuerySpec. Two text forms:
///
/// Compact (the CLI's `--query=` vocabulary):
///
///   kind:key=val,key=val,...
///
///   mss:seq=0,model=uniform
///   topt:seq=2,t=5,model=probs(0.25;0.75)
///   disjoint:seq=0,t=10,min_length=4,min_x2=0,model=uniform
///   threshold:seq=0,alpha_p=0.001,model=uniform
///   minlen:seq=1,min_length=50,model=uniform
///   lenbound:seq=0,min_length=8,max_length=64,model=uniform
///   arlm:seq=0,model=uniform
///   agmm:seq=0,model=uniform
///   blocked:seq=0,block_size=64,model=uniform
///   mss:seq=0,model=markov1(0.9;0.1;0.1;0.9|0.5;0.5)
///
/// JSON (interchange form; ParseQuery auto-detects a leading '{'):
///
///   {"kind":"topt","seq":2,"t":5,
///    "model":{"kind":"multinomial","probs":[0.25,0.75]}}
///
/// Canonical rules — FormatQuery emits exactly one spelling per spec:
///   * `seq` first, the kind's parameters in declaration order, `model`
///     last.
///   * every parameter is emitted, except threshold's `alpha0`/`alpha_p`
///     (emitted only when set, i.e. >= 0) and `max_matches` (emitted only
///     when a cap is set, i.e. != INT64_MAX).
///   * doubles print in shortest round-trip form (std::to_chars), so equal
///     specs always serialize to equal bytes and distinct doubles to
///     distinct bytes.
///   * model spells as `uniform`, `probs(p1;p2;...)`, or
///     `markov<order>(t11;...;tkk|i1;...;ik)` (the `|initial` part omitted
///     when the initial distribution is empty = uniform start).
///
/// ParseQuery(FormatQuery(q)) == q for every representable spec; parsing
/// is strict (unknown kinds/keys, duplicate keys, malformed numbers and
/// trailing bytes are InvalidArgument errors naming the offending piece).
std::string FormatQuery(const QuerySpec& spec);

/// The JSON spelling of the same canonical content.
std::string FormatQueryJson(const QuerySpec& spec);

/// Parses either form (leading '{' selects JSON).
Result<QuerySpec> ParseQuery(std::string_view text);

/// The canonical cache-identity bytes of a query: FormatQuery minus the
/// `seq` field. The engine's result cache keys on (sequence-content
/// fingerprint, FNV-1a of these bytes), so what a query *computes* is
/// identified by content, never by which record index it happened to be
/// addressed to — and any change to the canonical grammar deliberately
/// invalidates cached results.
std::string CanonicalQueryKey(const QuerySpec& spec);

/// FNV-1a digest of CanonicalQueryKey(spec): the query half of the
/// engine's result-cache key.
uint64_t FingerprintQuery(const QuerySpec& spec);

}  // namespace api
}  // namespace sigsub

#endif  // SIGSUB_API_SERDE_H_
