// The thread-safe session is api::Session itself (session.hpp); these
// names remain for code written against the former serve-only type.
#pragma once

#include "api/session.hpp"

namespace rchls::api {

using SharedSession = Session;
using SharedSessionStats = SessionStats;

}  // namespace rchls::api
