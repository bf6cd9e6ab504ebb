#ifndef LEARNEDSQLGEN_NET_FRAME_FSM_H_
#define LEARNEDSQLGEN_NET_FRAME_FSM_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace lsg {
namespace net {

/// Events a FrameFsm emits while consuming bytes off a socket.
enum class FrameEvent {
  kFrame,      ///< a complete non-empty line (payload excludes CR/LF)
  kOversized,  ///< a line exceeded max_frame_bytes; payload is truncated
};

/// Table-driven line framer for the lsgserved wire protocol: one request
/// per LF-terminated line (a lone CR before the LF is stripped, so both
/// "\n" and "\r\n" clients work). Split reads are first-class — Feed may
/// be called with any byte granularity, including one byte at a time, and
/// frames spanning many reads accumulate in one buffer that is reused
/// between frames (capacity is kept, contents cleared).
///
/// The machine is a small state x input-class transition table in the
/// style of libxmpps' fsm.c rather than an ad-hoc scanner: every
/// (state, class) pair names its next state and action in one static
/// table, which makes the oversized-line resynchronisation path (swallow
/// bytes until the next LF, then report exactly one kOversized event)
/// obvious and exhaustively testable.
class FrameFsm {
 public:
  /// States (exposed for the unit tests and the analyzer-style table
  /// checks; user code only calls Feed).
  enum State : uint8_t {
    kIdle = 0,     ///< between frames, nothing buffered
    kAccum = 1,    ///< inside a line, bytes buffered
    kDiscard = 2,  ///< inside an oversized line, swallowing to next LF
    kNumStates = 3,
  };

  /// Input classes the table switches on.
  enum InputClass : uint8_t {
    kLf = 0,    ///< '\n' — frame terminator
    kCr = 1,    ///< '\r' — stripped when directly before LF
    kByte = 2,  ///< anything else
    kNumClasses = 3,
  };

  /// What a transition does before entering its next state.
  enum Action : uint8_t {
    kNone = 0,          ///< consume silently
    kAppend = 1,        ///< append byte to the frame buffer
    kEmit = 2,          ///< emit kFrame (empty lines are dropped)
    kEmitOversized = 3, ///< emit kOversized, reset the buffer
  };

  struct Transition {
    State next;
    Action action;
  };

  using Callback = std::function<void(FrameEvent, std::string_view payload)>;

  explicit FrameFsm(size_t max_frame_bytes = 64 * 1024)
      : max_frame_bytes_(max_frame_bytes == 0 ? 1 : max_frame_bytes) {}

  /// Consumes `data`, invoking `cb` once per completed frame in order.
  /// The payload view is valid only for the duration of the callback.
  void Feed(std::string_view data, const Callback& cb);

  State state() const { return state_; }
  size_t buffered_bytes() const { return buf_.size(); }
  size_t max_frame_bytes() const { return max_frame_bytes_; }

  /// The transition table itself; exposed so tests can verify totality
  /// (every state x class pair is defined and reaches kIdle via LF).
  static const Transition (&Table())[kNumStates][kNumClasses];

  static InputClass Classify(char c) {
    if (c == '\n') return kLf;
    if (c == '\r') return kCr;
    return kByte;
  }

 private:
  size_t max_frame_bytes_;
  State state_ = kIdle;
  std::string buf_;
  size_t pending_cr_ = 0;  ///< CRs seen but not yet committed to the buffer
};

}  // namespace net
}  // namespace lsg

#endif  // LEARNEDSQLGEN_NET_FRAME_FSM_H_
