#include "nn/serialize.h"

#include <cstdint>
#include <cstdio>
#include <memory>

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
    uint32_t rows = static_cast<uint32_t>(p->value().rows());
    uint32_t cols = static_cast<uint32_t>(p->value().cols());
    if (std::fwrite(&name_len, sizeof(name_len), 1, f.get()) != 1 ||
        std::fwrite(p->name.data(), 1, name_len, f.get()) != name_len ||
        std::fwrite(&rows, sizeof(rows), 1, f.get()) != 1 ||
        std::fwrite(&cols, sizeof(cols), 1, f.get()) != 1 ||
        std::fwrite(p->value().data(), sizeof(float), p->value().size(),
                    f.get()) != p->value().size()) {
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
    if (name != p->name || rows != static_cast<uint32_t>(p->value().rows()) ||
        cols != static_cast<uint32_t>(p->value().cols())) {
      return Status::InvalidArgument(
          StrFormat("tensor mismatch: file has %s(%ux%u), model expects "
                    "%s(%dx%d)",
                    name.c_str(), rows, cols, p->name.c_str(),
                    p->value().rows(), p->value().cols()));
    }
    bool complete = false;
    p->UpdateValue([&](Matrix* value) {
      complete = std::fread(value->data(), sizeof(float), value->size(),
                            f.get()) == value->size();
    });
    if (!complete) {
      return Status::InvalidArgument("truncated tensor data in " + path);
    }
  }
  return Status::Ok();
}

}  // namespace lsg
