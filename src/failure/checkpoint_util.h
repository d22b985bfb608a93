// Shared helpers for serializing component state into checkpoints. Each
// component names its fields once, in payload order, in a static
// Transfer(Ar& ar, Self& self) that SaveState runs with (CheckpointWriter,
// const T) and LoadState with (CheckpointReader, T); load-only work sits in
// `if constexpr (kLoading<Ar>)` blocks (DESIGN.md §8).
#ifndef SRC_FAILURE_CHECKPOINT_UTIL_H_
#define SRC_FAILURE_CHECKPOINT_UTIL_H_

#include <array>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "src/failure/checkpoint_io.h"

namespace floatfl {

template <class Ar>
inline constexpr bool kLoading = std::is_same_v<Ar, CheckpointReader>;

// An RNG's raw state.
template <class Ar, class R>
void RngState(Ar& ar, R& rng) {
  std::array<uint64_t, 6> raw = rng.SaveRaw();
  for (uint64_t& v : raw) {
    ar.U64(v);
  }
  if constexpr (kLoading<Ar>) {
    rng.RestoreRaw(raw);
  }
}

// A component with its own SaveState/LoadState.
template <class Ar, class C>
void Nested(Ar& ar, C& c) {
  if constexpr (kLoading<Ar>) {
    c.LoadState(ar);
  } else {
    c.SaveState(ar);
  }
}

// An enum (or small integer code) stored as U32. The reader refuses a stored
// value at or above `count`, the number of values the type defines.
template <class Ar, class E>
void Enum(Ar& ar, E& e, uint32_t count) {
  uint32_t v = static_cast<uint32_t>(e);
  ar.U32(v);
  if constexpr (kLoading<Ar>) {
    if (v >= count) {
      ar.Fail();
    }
    e = static_cast<E>(v);
  }
}

// A count the component fixed at construction (population, parties, cells):
// the writer stores `n`, the reader refuses any other stored count. Returns
// false once the reader has failed, so the caller stops reading.
template <class Ar>
bool CheckedCount(Ar& ar, size_t n) {
  size_t stored = n;
  ar.Size(stored);
  if constexpr (kLoading<Ar>) {
    if (stored != n) {
      ar.Fail();
    }
  }
  return ar.ok();
}

// A vector whose length the component fixed at construction (model
// parameters): the bytes of the *Vec forms, read in place after a checked
// count.
template <class Ar, class V>
bool FixedF32Vec(Ar& ar, V& v) {
  if (!CheckedCount(ar, v.size())) {
    return false;
  }
  for (auto& x : v) {
    ar.F32(x);
  }
  return ar.ok();
}

// An optional component behind a Bool presence flag. The reader refuses a
// flag that disagrees with whether `c` is attached. Returns false once the
// reader has failed.
template <class Ar, class C>
bool Optional(Ar& ar, C* c) {
  bool present = c != nullptr;
  ar.Bool(present);
  if constexpr (kLoading<Ar>) {
    if (present != (c != nullptr)) {
      ar.Fail();
    }
  }
  if (ar.ok() && c != nullptr) {
    Nested(ar, *c);
  }
  return ar.ok();
}

namespace checkpoint_detail {
template <class C>
struct Element {
  using type = typename C::value_type;
};
template <class C>
  requires requires { typename C::mapped_type; }
struct Element<C> {
  using type = std::pair<typename C::key_type, typename C::mapped_type>;
};
}  // namespace checkpoint_detail

// A sequence of structs: the count, then `item(ar, element)` for each. The
// reader rebuilds the container (vector, deque, map or set) from scratch.
template <class C, class F>
void Seq(CheckpointWriter& w, const C& c, F&& item) {
  w.Size(c.size());
  for (const auto& x : c) {
    item(w, x);
  }
}
template <class C, class F>
void Seq(CheckpointReader& r, C& c, F&& item) {
  const size_t n = r.Size();
  c.clear();
  for (size_t i = 0; i < n && r.ok(); ++i) {
    typename checkpoint_detail::Element<C>::type x{};
    item(r, x);
    c.insert(c.end(), std::move(x));
  }
}

}  // namespace floatfl

#endif  // SRC_FAILURE_CHECKPOINT_UTIL_H_
