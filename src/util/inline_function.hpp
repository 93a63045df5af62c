// InlineFunction: a callable that holds its captures in a fixed inline
// buffer beside one function pointer — Figure 2's {function handler, args}
// pair with the args stored in place. Unlike std::function it never
// allocates, and it is trivially copyable and trivially destructible, so an
// array of them is copied, cleared and reused as plain bytes.
//
// Only callables that keep those properties fit (FitsInline): a callable
// that is not trivially copyable (a lambda capturing a std::vector or a
// std::string) or that is larger than the capacity (32 bytes: a `this`
// pointer plus a five-tuple plus one more pointer) does not compile — the
// call resolves to the deleted constructor whose parameter type is named
// CaptureOwnsMemoryOrIsTooLarge. Per-flow state that does not fit lives in
// a block the NF owns; capture a pointer to it.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace speedybox::util {

inline constexpr std::size_t kInlineFunctionCapacity = 32;

/// Whether a callable of type F can live inline in `Capacity` bytes.
template <class F, std::size_t Capacity>
concept FitsInline = std::is_trivially_copyable_v<F> &&
                     sizeof(F) <= Capacity &&
                     alignof(F) <= alignof(void*);

template <class Signature, std::size_t Capacity = kInlineFunctionCapacity>
class InlineFunction;

template <class R, class... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
  /// F is a callable of this signature (and not an InlineFunction).
  template <class F>
  static constexpr bool kCallable =
      !std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
      std::is_invocable_r_v<R, const std::remove_cvref_t<F>&, Args...>;

 public:
  InlineFunction() noexcept = default;

  template <class F>
    requires(kCallable<F> && FitsInline<std::remove_cvref_t<F>, Capacity>)
  InlineFunction(F&& callable) noexcept  // NOLINT: implicit, like std::function
      : invoke_(&invoke<std::remove_cvref_t<F>>) {
    ::new (static_cast<void*>(storage_))
        std::remove_cvref_t<F>(std::forward<F>(callable));
  }
  /// What a capture that does not fit resolves to, so the compile error
  /// names the rule: keep the state in the NF and capture a pointer to it.
  template <class CaptureOwnsMemoryOrIsTooLarge>
    requires(kCallable<CaptureOwnsMemoryOrIsTooLarge> &&
             !FitsInline<std::remove_cvref_t<CaptureOwnsMemoryOrIsTooLarge>,
                         Capacity>)
  InlineFunction(CaptureOwnsMemoryOrIsTooLarge&&) = delete;

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  /// Call the held callable. Precondition: not empty.
  R operator()(Args... args) const {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

 private:
  template <class F>
  static R invoke(const std::byte* storage, Args... args) {
    return (*std::launder(reinterpret_cast<const F*>(storage)))(
        std::forward<Args>(args)...);
  }

  R (*invoke_)(const std::byte*, Args...) = nullptr;
  alignas(void*) std::byte storage_[Capacity]{};
};

}  // namespace speedybox::util
