#include "nn/serialize.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/string_util.h"

namespace lsg {

namespace {
constexpr uint32_t kMagic = 0x4C53474Eu;  // "LSGN"

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// Logical rows per block of a token-major tensor's transfer. Logical rows
// [r0, r0 + n) of logical column c are n contiguous floats of the storage
// (LogicalOffset(r0, c) onwards), so a block of 16 rows reads or writes one
// cache line per storage row and walks the storage once per block, not
// once per logical row.
constexpr int kBlockRows = 16;

// Writes p's value in its logical row-major order: a row-major tensor's
// storage as it is, a token-major one's a block of logical rows at a time,
// transposed into `block`.
bool WriteLogical(const ParamTensor& p, std::FILE* f) {
  const float* v = p.value().data();
  if (!p.token_major()) {
    return std::fwrite(v, sizeof(float), p.value().size(), f) ==
           p.value().size();
  }
  const int rows = p.logical_rows();
  const int cols = p.logical_cols();
  std::vector<float> block(static_cast<size_t>(kBlockRows) * cols);
  for (int r0 = 0; r0 < rows; r0 += kBlockRows) {
    const int n = std::min(kBlockRows, rows - r0);
    for (int c = 0; c < cols; ++c) {
      const float* src = v + p.LogicalOffset(r0, c);
      for (int i = 0; i < n; ++i) {
        block[static_cast<size_t>(i) * cols + c] = src[i];
      }
    }
    const size_t len = static_cast<size_t>(n) * cols;
    if (std::fwrite(block.data(), sizeof(float), len, f) != len) return false;
  }
  return true;
}

// Reads what WriteLogical wrote into p's storage; false when the file ends
// first.
bool ReadLogical(ParamTensor* p, std::FILE* f) {
  bool complete = true;
  p->UpdateValue([&](Matrix* value) {
    float* v = value->data();
    if (!p->token_major()) {
      complete =
          std::fread(v, sizeof(float), value->size(), f) == value->size();
      return;
    }
    const int rows = p->logical_rows();
    const int cols = p->logical_cols();
    std::vector<float> block(static_cast<size_t>(kBlockRows) * cols);
    for (int r0 = 0; r0 < rows; r0 += kBlockRows) {
      const int n = std::min(kBlockRows, rows - r0);
      const size_t len = static_cast<size_t>(n) * cols;
      if (std::fread(block.data(), sizeof(float), len, f) != len) {
        complete = false;
        return;
      }
      for (int c = 0; c < cols; ++c) {
        float* dst = v + p->LogicalOffset(r0, c);
        for (int i = 0; i < n; ++i) {
          dst[i] = block[static_cast<size_t>(i) * cols + c];
        }
      }
    }
  });
  return complete;
}

}  // namespace

Status SaveParams(const std::vector<ParamTensor*>& params,
                  const std::string& path) {
  return SaveParams(
      std::vector<const ParamTensor*>(params.begin(), params.end()), path);
}

Status SaveParams(const std::vector<const ParamTensor*>& params,
                  const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) return Status::Internal("cannot open " + path);
  uint32_t magic = kMagic;
  uint32_t count = static_cast<uint32_t>(params.size());
  if (std::fwrite(&magic, sizeof(magic), 1, f.get()) != 1 ||
      std::fwrite(&count, sizeof(count), 1, f.get()) != 1) {
    return Status::Internal("write failed: " + path);
  }
  for (const ParamTensor* p : params) {
    uint32_t name_len = static_cast<uint32_t>(p->name.size());
    uint32_t rows = static_cast<uint32_t>(p->logical_rows());
    uint32_t cols = static_cast<uint32_t>(p->logical_cols());
    if (std::fwrite(&name_len, sizeof(name_len), 1, f.get()) != 1 ||
        std::fwrite(p->name.data(), 1, name_len, f.get()) != name_len ||
        std::fwrite(&rows, sizeof(rows), 1, f.get()) != 1 ||
        std::fwrite(&cols, sizeof(cols), 1, f.get()) != 1 ||
        !WriteLogical(*p, f.get())) {
      return Status::Internal("write failed: " + path);
    }
  }
  return Status::Ok();
}

Status LoadParams(const std::vector<ParamTensor*>& params,
                  const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  uint32_t magic = 0, count = 0;
  if (std::fread(&magic, sizeof(magic), 1, f.get()) != 1 || magic != kMagic) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  if (std::fread(&count, sizeof(count), 1, f.get()) != 1 ||
      count != params.size()) {
    return Status::InvalidArgument(
        StrFormat("parameter count mismatch in %s", path.c_str()));
  }
  for (ParamTensor* p : params) {
    uint32_t name_len = 0, rows = 0, cols = 0;
    if (std::fread(&name_len, sizeof(name_len), 1, f.get()) != 1) {
      return Status::InvalidArgument("truncated file " + path);
    }
    // Checked before the name is allocated: the header is untrusted, and
    // a corrupt length would allocate up to 4 GiB.
    if (name_len != p->name.size()) {
      return Status::InvalidArgument(
          StrFormat("tensor mismatch: file has a %u-byte name, model expects "
                    "%s",
                    name_len, p->name.c_str()));
    }
    std::string name(name_len, '\0');
    if (std::fread(name.data(), 1, name_len, f.get()) != name_len ||
        std::fread(&rows, sizeof(rows), 1, f.get()) != 1 ||
        std::fread(&cols, sizeof(cols), 1, f.get()) != 1) {
      return Status::InvalidArgument("truncated file " + path);
    }
    if (name != p->name ||
        rows != static_cast<uint32_t>(p->logical_rows()) ||
        cols != static_cast<uint32_t>(p->logical_cols())) {
      return Status::InvalidArgument(
          StrFormat("tensor mismatch: file has %s(%ux%u), model expects "
                    "%s(%dx%d)",
                    name.c_str(), rows, cols, p->name.c_str(),
                    p->logical_rows(), p->logical_cols()));
    }
    if (!ReadLogical(p, f.get())) {
      return Status::InvalidArgument("truncated tensor data in " + path);
    }
  }
  return Status::Ok();
}

}  // namespace lsg
