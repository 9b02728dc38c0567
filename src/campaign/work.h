// campaign::Sink, the name core::ScreeningSink had before it moved into
// core. e2ebench's screening probe still uses it.
#pragma once

#include "core/screening.h"

namespace cmldft::campaign {

using Sink = core::ScreeningSink;

}  // namespace cmldft::campaign
