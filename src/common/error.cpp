#include "fpm/common/error.hpp"

#include <sstream>

namespace fpm::detail {

namespace {
std::string location_string(const std::source_location& loc) {
    std::ostringstream os;
    os << loc.file_name() << ':' << loc.line() << " (" << loc.function_name() << ')';
    return os.str();
}
} // namespace

void throw_check_failure(const char* expr, const std::string& message,
                         const std::source_location& loc) {
    throw Error("fpmpart check failed: ", message,
                std::string(" [") + expr + "] at " + location_string(loc));
}

void throw_assert_failure(const char* expr, const std::source_location& loc) {
    std::ostringstream os;
    os << "fpmpart internal invariant violated: [" << expr << "] at "
       << location_string(loc);
    throw LogicError(os.str());
}

} // namespace fpm::detail
