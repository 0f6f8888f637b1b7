#include "core/mapped.hpp"

#include <new>

#include <sys/mman.h>

namespace saclo {

void* map_pages(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void unmap_pages(void* p, std::size_t bytes) noexcept { munmap(p, bytes); }

}  // namespace saclo
