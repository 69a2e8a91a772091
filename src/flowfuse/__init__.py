"""flowfuse: one-step flow-based image fusion at desk scale.

Submodules:
    tensor     Tensor, the float64 array that encode and the sampler return
    fft        2-D DFT on np.fft with power-of-two padding, adjoint
    image      Image type, histograms, Gaussian windows and blur,
               valid correlation, BT.601 conversion
    imgio      PNG and PGM/PPM 8-bit readers/writers
    autodiff   reverse-mode tape over a fixed primitive set
    optim      ParamSet and Adam
    flow       straight-path flow core and Euler sampler
    guidance   fusion prior: saliency weights, likelihood gradient
    codec      latent autoencoder and the two training stages
    metrics    the ten fusion evaluation metrics
    checkpoint RFFZ tensor container (+ codec/flow serialization)
    config     flat key=value run configuration
    synth      synthetic ivif/mef/mff pair generation
    cli        command-line entry points
"""

__version__ = "0.1.0"

from .tensor import Tensor

__all__ = ["Tensor", "__version__"]
