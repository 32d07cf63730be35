// Names the calling thread, as shown by top -H, ps -L and
// /proc/<pid>/task/<tid>/comm, so per-thread CPU time and context
// switches of a serving process can be told apart.

#ifndef FANNR_COMMON_THREAD_NAME_H_
#define FANNR_COMMON_THREAD_NAME_H_

#include <pthread.h>

#include <string>

namespace fannr {

/// Linux keeps at most 15 bytes of a thread name; longer names are cut.
inline void SetThreadName(const std::string& name) {
  pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
}

}  // namespace fannr

#endif  // FANNR_COMMON_THREAD_NAME_H_
