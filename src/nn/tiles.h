#ifndef LEARNEDSQLGEN_NN_TILES_H_
#define LEARNEDSQLGEN_NN_TILES_H_

#include <cstddef>

namespace lsg {

/// Covers [0, n) with fixed-width tiles, widest first (kMaxWidth, then at
/// most one each of the narrower powers of two down to 1), calling
/// `tile.template operator()<W>(offset)` for each. The width is a template
/// constant because GCC's -O2 SLP vectorizer only packs constant-trip-count
/// loops; a runtime-width loop stays scalar. The default 16 floats fill one
/// AVX-512 (four SSE) vector — few enough that a tile's accumulators stay in
/// registers at -O2.
/// A tile kernel that keeps each element's own operation sequence (no
/// reassociation across elements, contraction off) is bitwise-identical to
/// the scalar loop, however n splits.
/// Always inlined: an out-of-line instance receives its lambda as a stack
/// closure, which GCC may build with a 256-bit store in the caller and then
/// return without vzeroupper. The dirty upper register state then slows
/// every SSE instruction in the baseline-ISA callers (nn/lstm.cc, libm's
/// expf/tanhf) several-fold.
template <int kMaxWidth = 16, typename Tile>
[[gnu::always_inline]] inline void ForEachTile(size_t n, Tile&& tile) {
  static_assert(kMaxWidth >= 1 && kMaxWidth <= 16 &&
                (kMaxWidth & (kMaxWidth - 1)) == 0);
  size_t k = 0;
  for (; k + kMaxWidth <= n; k += kMaxWidth) {
    tile.template operator()<kMaxWidth>(k);
  }
  if constexpr (kMaxWidth > 8) {
    if (k + 8 <= n) {
      tile.template operator()<8>(k);
      k += 8;
    }
  }
  if constexpr (kMaxWidth > 4) {
    if (k + 4 <= n) {
      tile.template operator()<4>(k);
      k += 4;
    }
  }
  if constexpr (kMaxWidth > 2) {
    if (k + 2 <= n) {
      tile.template operator()<2>(k);
      k += 2;
    }
  }
  if constexpr (kMaxWidth > 1) {
    if (k < n) tile.template operator()<1>(k);
  }
}

}  // namespace lsg

#endif  // LEARNEDSQLGEN_NN_TILES_H_
