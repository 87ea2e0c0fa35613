"""Text-dependent speaker verification with time-contrastive bottleneck features.

The package follows the experiment pipeline end to end: MFCC frontend with
RASTA filtering and energy VAD, unsupervised time-contrastive frame labeling,
a sigmoid feedforward network whose hidden activations become bottleneck
features after PCA, and a GMM-UBM/MAP backend scored by average-frame LLR
with EER/minDCF evaluation.  ``tclsv.cli`` exposes each stage as a subcommand.
"""

# first, so that OpenBLAS's thread timeout is set before anything loads numpy
from . import blas  # noqa: F401

__version__ = "0.1.0"
