#include "exec/key_codec.hpp"

#include <algorithm>
#include <bit>

#include "exec/batch.hpp"

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

void KeyCodec::AppendTranslated(const KeyCodec& part) {
  size_t nc = dicts_.size();
  if (part.num_rows_ == 0 || nc == 0) {
    num_rows_ += part.num_rows_;
    return;
  }
  // Translate each part dictionary once, in part-id order. A column's part
  // ids are the chunk's first-seen order of that column's values (the
  // appenders intern active rows only), so interning them in id order
  // assigns new values exactly the ids a serial scan of the chunk would.
  std::vector<std::vector<uint32_t>> xlat(nc);
  for (size_t c = 0; c < nc; ++c) {
    const ValueDict& dict = part.dicts_[c];
    xlat[c].resize(dict.size());
    for (uint32_t id = 0; id < dict.size(); ++id) xlat[c][id] = dicts_[c].GetOrAdd(dict.At(id));
  }
  // Remap rows with array loads and append them a batch at a time, so the
  // row store charges and checks the spill watermark at the serial drain's
  // granularity. A part that spilled is read row by row through its page
  // cache; otherwise its rows are one contiguous in-memory array.
  const size_t block = std::max<size_t>(1, GetBatchRows());
  const uint32_t* mem = part.ids_.on_disk() ? nullptr : part.ids_.Row(0);
  for (size_t begin = 0; begin < part.num_rows_; begin += block) {
    size_t n = std::min(block, part.num_rows_ - begin);
    scratch_.resize(n * nc);
    uint32_t* dst = scratch_.data();
    for (size_t r = begin; r < begin + n; ++r) {
      const uint32_t* src = mem != nullptr ? mem + r * nc : part.ids_.Row(r);
      for (size_t c = 0; c < nc; ++c) *dst++ = xlat[c][src[c]];
    }
    ids_.Append(scratch_.data(), n);
  }
  num_rows_ += part.num_rows_;
}

}  // namespace quotient
