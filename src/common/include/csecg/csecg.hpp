// Umbrella header: the entire csecg public API.
//
// Link the csecg::csecg CMake target when using this header; individual
// module targets (csecg::core, csecg::dsp, ...) exist for finer-grained
// dependencies.
#pragma once

#include "csecg/common/check.hpp"

#include "csecg/rng/distributions.hpp"
#include "csecg/rng/xoshiro.hpp"

#include "csecg/linalg/matrix.hpp"
#include "csecg/linalg/operator.hpp"
#include "csecg/linalg/solve.hpp"
#include "csecg/linalg/vector.hpp"

#include "csecg/dsp/dct.hpp"
#include "csecg/dsp/dwt.hpp"
#include "csecg/dsp/fir.hpp"
#include "csecg/dsp/wavelet.hpp"

#include "csecg/ecg/beats.hpp"
#include "csecg/ecg/ecgsyn.hpp"
#include "csecg/ecg/noise.hpp"
#include "csecg/ecg/qrs.hpp"
#include "csecg/ecg/record.hpp"

#include "csecg/sensing/lowres_channel.hpp"
#include "csecg/sensing/matrices.hpp"
#include "csecg/sensing/quantizer.hpp"
#include "csecg/sensing/rmpi.hpp"

#include "csecg/recovery/admm.hpp"
#include "csecg/recovery/fista.hpp"
#include "csecg/recovery/greedy.hpp"
#include "csecg/recovery/model_based.hpp"
#include "csecg/recovery/pdhg.hpp"
#include "csecg/recovery/prox.hpp"
#include "csecg/recovery/reweighted.hpp"
#include "csecg/recovery/spgl1.hpp"

#include "csecg/coding/bitstream.hpp"
#include "csecg/coding/decode_error.hpp"
#include "csecg/coding/delta.hpp"
#include "csecg/coding/delta_huffman_codec.hpp"
#include "csecg/coding/huffman.hpp"
#include "csecg/coding/zero_run_codec.hpp"

#include "csecg/power/models.hpp"
#include "csecg/power/node_energy.hpp"

#include "csecg/metrics/quality.hpp"
#include "csecg/metrics/stats.hpp"

#include "csecg/core/adaptive.hpp"
#include "csecg/core/config.hpp"
#include "csecg/core/frame.hpp"
#include "csecg/core/frontend.hpp"
#include "csecg/core/runner.hpp"
