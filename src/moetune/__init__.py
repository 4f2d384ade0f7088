"""Desk-scale instruction tuning for a sparse mixture-of-experts decoder.

Pieces: a tape-autograd tensor core, a top-2-routed MoE transformer, LoRA
adapters over 4-bit-quantized frozen weights, a three-source chat-data
pipeline, and an SFT trainer with bit-exact checkpoints and greedy or
sampled decoding.
"""

__version__ = "0.1.0"
