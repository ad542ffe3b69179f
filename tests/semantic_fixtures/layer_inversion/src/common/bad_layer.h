// Fixture: a bottom-layer module reaching up into core/ must be
// reported as layer-inversion (tools/igs_semantic.py --self-test).
#ifndef FIXTURE_COMMON_BAD_LAYER_H
#define FIXTURE_COMMON_BAD_LAYER_H

#include "core/api.h"

inline int
doubled_answer()
{
    return core_answer() * 2;
}

#endif // FIXTURE_COMMON_BAD_LAYER_H
