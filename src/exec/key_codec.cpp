#include "exec/key_codec.hpp"

#include <bit>

namespace quotient {

void KeyCodec::Seal() {
  shifts_.assign(dicts_.size(), 0);
  masks_.assign(dicts_.size(), 0);
  uint32_t offset = 0;
  bool overflow = false;
  for (size_t c = 0; c < dicts_.size(); ++c) {
    size_t n = dicts_[c].size();
    // Minimal width for ids 0..n-1; an empty or single-value dictionary
    // contributes no bits (its id is always 0).
    uint32_t width = n <= 1 ? 0 : static_cast<uint32_t>(std::bit_width(n - 1));
    if (offset + width > 64) {
      overflow = true;
      break;
    }
    shifts_[c] = offset;
    masks_[c] = width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    offset += width;
  }
  spilled_ = overflow;
  sealed_ = true;
}

}  // namespace quotient
