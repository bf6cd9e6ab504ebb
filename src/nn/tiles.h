#ifndef LEARNEDSQLGEN_NN_TILES_H_
#define LEARNEDSQLGEN_NN_TILES_H_

#include <cstddef>

namespace lsg {

/// Covers [0, n) with fixed-width tiles, widest first (16, then at most one
/// each of 8, 4, 2 and 1), calling `tile.template operator()<W>(offset)` for
/// each. The width is a template constant because GCC's -O2 SLP vectorizer
/// only packs constant-trip-count loops; a runtime-width loop stays scalar.
/// 16 floats fill one AVX-512 (four SSE) vector — few enough that a tile's
/// accumulators stay in registers at -O2.
/// A tile kernel that keeps each element's own operation sequence (no
/// reassociation across elements, contraction off) is bitwise-identical to
/// the scalar loop, however n splits.
template <typename Tile>
inline void ForEachTile(size_t n, Tile&& tile) {
  size_t k = 0;
  for (; k + 16 <= n; k += 16) tile.template operator()<16>(k);
  if (k + 8 <= n) {
    tile.template operator()<8>(k);
    k += 8;
  }
  if (k + 4 <= n) {
    tile.template operator()<4>(k);
    k += 4;
  }
  if (k + 2 <= n) {
    tile.template operator()<2>(k);
    k += 2;
  }
  if (k < n) tile.template operator()<1>(k);
}

}  // namespace lsg

#endif  // LEARNEDSQLGEN_NN_TILES_H_
