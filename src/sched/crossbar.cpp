#include "sched/crossbar.hpp"

#include <stdexcept>

#include "sched/abr_crossbar.hpp"
#include "sched/islip_crossbar.hpp"
#include "sched/matrix_crossbar.hpp"
#include "sched/wrr_crossbar.hpp"

namespace ibarb::sched {

std::unique_ptr<CrossbarScheduler> make_crossbar(CrossbarImpl impl,
                                                 unsigned ports) {
  switch (impl) {
    case CrossbarImpl::kWrr:
      return std::make_unique<WrrCrossbar>(ports);
    case CrossbarImpl::kIslip:
      return std::make_unique<IslipCrossbar>(ports);
    case CrossbarImpl::kMatrix:
      return std::make_unique<MatrixCrossbar>(ports);
    case CrossbarImpl::kAbr:
      return std::make_unique<AbrCrossbar>(ports);
  }
  throw std::invalid_argument("make_crossbar: unknown CrossbarImpl");
}

}  // namespace ibarb::sched
