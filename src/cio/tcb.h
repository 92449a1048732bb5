// TCB accounting: which code is inside the confidential application's
// trusted computing base under each stack profile — the "TCB" axis of
// Figure 5.
//
// Line counts are rounded values taken from this repository with
// tools/count_loc.sh. Nothing checks the table against the live tree yet,
// so it can drift as the code changes. What matters for the figure is the
// *ratio* between profiles, which is structural: the dual-boundary and
// syscall profiles exclude the network stack from the app's TCB; the L2
// profiles include it.

#ifndef SRC_CIO_TCB_H_
#define SRC_CIO_TCB_H_

#include <string>
#include <vector>

#include "src/cio/engine.h"

namespace cio {

struct TcbModule {
  std::string name;
  size_t lines;
};

struct TcbReport {
  // Code the application must trust with its data (compromise = game over).
  std::vector<TcbModule> app_tcb;
  // Code inside the confidential unit but OUTSIDE the app's TCB (the
  // isolated I/O compartment): its compromise only raises observability.
  std::vector<TcbModule> isolated;
  // Untrusted host-side code the design relies on for service only.
  std::vector<TcbModule> host_side;

  size_t AppTcbLines() const;
  size_t IsolatedLines() const;
  std::string ToString() const;
};

TcbReport ProfileTcb(StackProfile profile);

}  // namespace cio

#endif  // SRC_CIO_TCB_H_
