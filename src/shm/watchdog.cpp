#include "shm/watchdog.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

#include "obs/obs.hpp"
#include "support/error.hpp"

namespace bstc::shm {
namespace {

/// The control segment's fixed layout. The seqlock (seq odd while a
/// publish is in flight, acquire/release pairing on the even values)
/// lets readers in other processes snapshot a consistent handle without
/// any cross-process lock.
struct CtlLayout {
  std::uint64_t magic;
  std::uint32_t layout_version;
  std::atomic<std::uint32_t> seq;
  std::uint64_t generation;
  std::uint64_t fingerprint;
  char store_name[kCtlNameCapacity];
};
static_assert(sizeof(CtlLayout) <= 4096, "control segment is one page");
static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "seqlock needs lock-free 32-bit atomics");

constexpr std::size_t kCtlSegmentBytes = 4096;

Status errno_status(const std::string& what, const std::string& name) {
  return Status::Fail("shm: " + what + " failed for '" + name + "': " +
                      std::strerror(errno));
}

/// Seqlock read of the published handle. Returns false only if the
/// segment never stabilises (bounded retries — a wedged writer must not
/// hang request threads).
bool read_handle(const CtlLayout* ctl, StoreHandle& out) {
  for (int attempt = 0; attempt < 1024; ++attempt) {
    const std::uint32_t before = ctl->seq.load(std::memory_order_acquire);
    if (before % 2 != 0) continue;  // publish in flight
    StoreHandle h;
    h.generation = ctl->generation;
    h.fingerprint = ctl->fingerprint;
    char name[kCtlNameCapacity];
    std::memcpy(name, ctl->store_name, kCtlNameCapacity);
    name[kCtlNameCapacity - 1] = '\0';
    std::atomic_thread_fence(std::memory_order_acquire);
    if (ctl->seq.load(std::memory_order_acquire) != before) continue;
    h.store_name = name;
    out = std::move(h);
    return true;
  }
  return false;
}

}  // namespace

StoreWatchdog::~StoreWatchdog() { close(); }

StoreWatchdog::StoreWatchdog(StoreWatchdog&& other) noexcept
    : ctl_name_(std::move(other.ctl_name_)),
      base_(other.base_),
      fd_(other.fd_),
      current_store_(std::move(other.current_store_)),
      previous_store_(std::move(other.previous_store_)) {
  other.base_ = nullptr;
  other.fd_ = -1;
}

StoreWatchdog& StoreWatchdog::operator=(StoreWatchdog&& other) noexcept {
  if (this != &other) {
    close();
    ctl_name_ = std::move(other.ctl_name_);
    base_ = other.base_;
    fd_ = other.fd_;
    current_store_ = std::move(other.current_store_);
    previous_store_ = std::move(other.previous_store_);
    other.base_ = nullptr;
    other.fd_ = -1;
  }
  return *this;
}

void StoreWatchdog::close() {
  if (base_ != nullptr) {
    ::munmap(base_, kCtlSegmentBytes);
    base_ = nullptr;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status StoreWatchdog::create(const std::string& ctl_name, StoreWatchdog& out) {
  if (ctl_name.empty() || ctl_name[0] != '/') {
    return Status::Fail("shm: control segment name must start with '/'");
  }
  const int fd = ::shm_open(ctl_name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) return errno_status("shm_open(create)", ctl_name);
  if (::ftruncate(fd, kCtlSegmentBytes) != 0) {
    const Status st = errno_status("ftruncate", ctl_name);
    ::close(fd);
    ::shm_unlink(ctl_name.c_str());
    return st;
  }
  void* base = ::mmap(nullptr, kCtlSegmentBytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    const Status st = errno_status("mmap", ctl_name);
    ::close(fd);
    ::shm_unlink(ctl_name.c_str());
    return st;
  }
  auto* ctl = new (base) CtlLayout();
  ctl->magic = kCtlMagic;
  ctl->layout_version = kCtlLayoutVersion;
  ctl->seq.store(0, std::memory_order_release);
  out.close();
  out.ctl_name_ = ctl_name;
  out.base_ = base;
  out.fd_ = fd;
  out.current_store_.clear();
  out.previous_store_.clear();
  return Status::Ok();
}

Status StoreWatchdog::publish(const StoreHandle& next) {
  if (base_ == nullptr) return Status::Fail("shm: watchdog is not open");
  if (!next.valid()) return Status::Fail("shm: refusing to publish an empty handle");
  if (next.store_name.size() + 1 > kCtlNameCapacity) {
    return Status::Fail("shm: store name too long for the control segment");
  }
  auto* ctl = static_cast<CtlLayout*>(base_);
  const std::uint32_t seq = ctl->seq.load(std::memory_order_relaxed);
  ctl->seq.store(seq + 1, std::memory_order_release);  // odd: in flight
  std::atomic_thread_fence(std::memory_order_release);
  ctl->generation = next.generation;
  ctl->fingerprint = next.fingerprint;
  std::memset(ctl->store_name, 0, kCtlNameCapacity);
  std::memcpy(ctl->store_name, next.store_name.c_str(),
              next.store_name.size() + 1);
  ctl->seq.store(seq + 2, std::memory_order_release);  // even: committed
  previous_store_ = current_store_;
  current_store_ = next.store_name;
  obs::Registry::current().counter_add("bstc_shm_publishes_total");
  return Status::Ok();
}

Status StoreWatchdog::retire_previous() {
  if (previous_store_.empty()) return Status::Ok();
  const Status st = ShmArena::unlink(previous_store_);
  if (st) previous_store_.clear();
  return st;
}

Status StoreWatchdog::unlink(const std::string& ctl_name) {
  if (::shm_unlink(ctl_name.c_str()) != 0 && errno != ENOENT) {
    return errno_status("shm_unlink", ctl_name);
  }
  return Status::Ok();
}

StoreRegistry::~StoreRegistry() {
  if (ctl_base_ != nullptr) {
    ::munmap(const_cast<void*>(ctl_base_), kCtlSegmentBytes);
  }
  if (ctl_fd_ >= 0) ::close(ctl_fd_);
}

Status StoreRegistry::attach(const std::string& ctl_name, StoreRegistry& out) {
  if (ctl_name.empty() || ctl_name[0] != '/') {
    return Status::Fail("shm: control segment name must start with '/'");
  }
  const int fd = ::shm_open(ctl_name.c_str(), O_RDONLY, 0);
  if (fd < 0) return errno_status("shm_open(attach)", ctl_name);
  struct stat st {};
  if (::fstat(fd, &st) != 0 ||
      static_cast<std::size_t>(st.st_size) < kCtlSegmentBytes) {
    ::close(fd);
    return Status::Fail("shm: control segment '" + ctl_name +
                        "' is missing or truncated");
  }
  const void* base =
      ::mmap(nullptr, kCtlSegmentBytes, PROT_READ, MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) {
    const Status s = errno_status("mmap", ctl_name);
    ::close(fd);
    return s;
  }
  const auto* ctl = static_cast<const CtlLayout*>(base);
  if (ctl->magic != kCtlMagic) {
    ::munmap(const_cast<void*>(base), kCtlSegmentBytes);
    ::close(fd);
    return Status::Fail("shm: bad magic in control segment '" + ctl_name +
                        "'");
  }
  if (ctl->layout_version != kCtlLayoutVersion) {
    ::munmap(const_cast<void*>(base), kCtlSegmentBytes);
    ::close(fd);
    return Status::Fail("shm: control segment '" + ctl_name +
                        "' has an unsupported layout version");
  }
  std::lock_guard lock(out.mutex_);
  if (out.ctl_base_ != nullptr) {
    ::munmap(const_cast<void*>(out.ctl_base_), kCtlSegmentBytes);
  }
  if (out.ctl_fd_ >= 0) ::close(out.ctl_fd_);
  out.ctl_name_ = ctl_name;
  out.ctl_base_ = base;
  out.ctl_fd_ = fd;
  out.handle_ = StoreHandle{};
  out.reader_.reset();
  return Status::Ok();
}

Status StoreRegistry::refresh() {
  if (ctl_base_ == nullptr) {
    return Status::Fail("shm: registry is not attached to a control segment");
  }
  StoreHandle published;
  if (!read_handle(static_cast<const CtlLayout*>(ctl_base_), published)) {
    return Status::Fail("shm: control segment '" + ctl_name_ +
                        "' never stabilised (writer wedged mid-publish?)");
  }
  if (!published.valid()) return Status::Ok();  // nothing published yet
  {
    std::lock_guard lock(mutex_);
    if (handle_.valid() && handle_.generation == published.generation &&
        handle_.store_name == published.store_name) {
      return Status::Ok();  // already current
    }
  }
  obs::ScopedSpan span(obs::Category::kShm, "store-swap");
  std::shared_ptr<ShmTileReader> reader;
  if (Status st =
          ShmTileReader::attach(published.store_name, reader,
                                published.fingerprint);
      !st) {
    return st;
  }
  bool swapped = false;
  {
    std::lock_guard lock(mutex_);
    swapped = reader_ != nullptr;
    reader_ = std::move(reader);
    handle_ = published;
  }
  // In-flight requests keep the superseded reader alive through their
  // SharedStoreSource shared_ptrs; the old mapping (and, once unlinked,
  // the segment itself) disappears when the last of them finishes.
  if (swapped) {
    obs::Registry::current().counter_add("bstc_shm_swaps_total");
  }
  obs::Registry::current().gauge_set(
      "bstc_shm_generation", static_cast<std::int64_t>(published.generation));
  return Status::Ok();
}

StoreHandle StoreRegistry::current_handle() const {
  std::lock_guard lock(mutex_);
  return handle_;
}

std::shared_ptr<const ShmTileReader> StoreRegistry::current_reader() const {
  std::lock_guard lock(mutex_);
  return reader_;
}

std::function<std::unique_ptr<TileSource>()> StoreRegistry::source_for(
    std::uint64_t fingerprint, const Shape& shape) const {
  std::shared_ptr<const ShmTileReader> reader = current_reader();
  if (reader == nullptr) return nullptr;
  if (reader->fingerprint() != fingerprint) return nullptr;
  if (!reader->matches_shape(shape)) return nullptr;
  return [reader]() -> std::unique_ptr<TileSource> {
    return std::make_unique<SharedStoreSource>(reader);
  };
}

}  // namespace bstc::shm
