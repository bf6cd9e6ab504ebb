#include "net/frame_fsm.h"

namespace lsg {
namespace net {

namespace {

using Transition = FrameFsm::Transition;

// The whole framer in one table (state x input class). Oversflow to
// kDiscard is the only transition not visible here: it happens when an
// kAppend action would push the buffer past max_frame_bytes.
constexpr Transition
    kTable[FrameFsm::kNumStates][FrameFsm::kNumClasses] = {
        // kIdle: LF = empty line (ignore), CR may start a line, byte starts
        // a line.
        {{FrameFsm::kIdle, FrameFsm::kEmit},
         {FrameFsm::kAccum, FrameFsm::kNone},
         {FrameFsm::kAccum, FrameFsm::kAppend}},
        // kAccum: LF terminates, CR is deferred (stripped iff before LF),
        // byte accumulates.
        {{FrameFsm::kIdle, FrameFsm::kEmit},
         {FrameFsm::kAccum, FrameFsm::kNone},
         {FrameFsm::kAccum, FrameFsm::kAppend}},
        // kDiscard: swallow everything until LF, then report the overflow.
        {{FrameFsm::kIdle, FrameFsm::kEmitOversized},
         {FrameFsm::kDiscard, FrameFsm::kNone},
         {FrameFsm::kDiscard, FrameFsm::kNone}},
};

}  // namespace

const Transition (&FrameFsm::Table())[FrameFsm::kNumStates]
                                     [FrameFsm::kNumClasses] {
  return kTable;
}

void FrameFsm::Feed(std::string_view data, const Callback& cb) {
  // Appends one byte, honoring the frame-size cap; returns false (and
  // switches to kDiscard) on overflow.
  auto append = [this](char c) {
    if (buf_.size() >= max_frame_bytes_) {
      state_ = kDiscard;
      return false;
    }
    buf_ += c;
    return true;
  };
  // Commits CRs that turned out to be payload (followed by a plain byte).
  auto flush_crs = [this, &append]() {
    while (pending_cr_ > 0) {
      --pending_cr_;
      if (!append('\r')) {
        pending_cr_ = 0;
        return false;
      }
    }
    return true;
  };

  for (char c : data) {
    const Transition& t = kTable[state_][Classify(c)];
    switch (t.action) {
      case kNone:
        if (state_ == kDiscard) break;
        if (Classify(c) == kCr) {
          ++pending_cr_;
        }
        break;
      case kAppend:
        if (!flush_crs() || !append(c)) continue;  // overflowed -> kDiscard
        break;
      case kEmit:
        // Exactly one CR directly before the LF is the line terminator's;
        // any earlier deferred CRs were payload.
        if (pending_cr_ > 0) --pending_cr_;
        if (!flush_crs()) continue;
        if (!buf_.empty()) cb(FrameEvent::kFrame, buf_);
        buf_.clear();
        pending_cr_ = 0;
        break;
      case kEmitOversized:
        cb(FrameEvent::kOversized, buf_);
        buf_.clear();
        pending_cr_ = 0;
        break;
    }
    state_ = t.next;
  }
}

}  // namespace net
}  // namespace lsg
