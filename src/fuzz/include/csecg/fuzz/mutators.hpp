// Structure-aware byte-level mutators for the deterministic fuzz harness.
//
// Every mutator is a pure function of (input, RNG state): the same seed
// always reproduces the same mutation sequence, so any failure found by
// the harness is replayable from the (target, seed, iteration) triple
// alone.  The strategies are the classic decoder-breakers — single-bit
// flips (desynchronize a Huffman stream), truncation (mid-code stream
// end), length-field corruption with boundary values (the u8/u16/u32
// count fields of the packet/codebook layouts), chunk surgery, and
// splicing two valid inputs (valid-prefix + foreign-suffix inputs reach
// deeper than random noise).
#pragma once

#include <cstdint>
#include <vector>

#include "csecg/rng/xoshiro.hpp"

namespace csecg::fuzz {

using Bytes = std::vector<std::uint8_t>;

/// Flips one uniformly chosen bit.  Identity on empty input.
Bytes flip_bit(Bytes input, rng::Xoshiro256& gen);

/// Overwrites one byte with a boundary value (0x00, 0xFF, 0x7F, 0x80) or
/// a uniform byte.  Identity on empty input.
Bytes set_byte(Bytes input, rng::Xoshiro256& gen);

/// Drops a uniformly chosen suffix (possibly all bytes).
Bytes truncate(Bytes input, rng::Xoshiro256& gen);

/// Appends 1..16 uniform bytes (trailing-garbage detection).
Bytes extend(Bytes input, rng::Xoshiro256& gen);

/// Reinterprets a random 1/2/4-byte span as a little- or big-endian
/// length field and replaces it with a boundary count: 0, 1, max, max−1,
/// or a huge value.  This is what turns "random corruption" into
/// "allocation-bomb and off-by-one probing".  Identity on empty input.
Bytes corrupt_length_field(Bytes input, rng::Xoshiro256& gen);

/// Deletes a uniformly chosen interior chunk.  Identity on empty input.
Bytes delete_chunk(Bytes input, rng::Xoshiro256& gen);

/// Duplicates a uniformly chosen chunk in place (repeated-section
/// confusion).  Identity on empty input.
Bytes duplicate_chunk(Bytes input, rng::Xoshiro256& gen);

/// Concatenates a prefix of `a` with a suffix of `b` at uniformly chosen
/// cut points — the splice-of-two-valid-inputs strategy.
Bytes splice(const Bytes& a, const Bytes& b, rng::Xoshiro256& gen);

/// Applies 1..3 randomly chosen mutators from the set above to `input`;
/// splice draws its second parent from `pool` (ignored when empty).
Bytes mutate(const Bytes& input, const std::vector<Bytes>& pool,
             rng::Xoshiro256& gen);

}  // namespace csecg::fuzz
