"""Message-level transformer: masked-document pre-training plus stance fine-tuning."""

__version__ = "0.1.0"
