"""Melody generation toolkit: datasets, gated-RNN training, sampling, metrics, MIDI."""

from .core import (
    DatasetVariant,
    Song,
    TrainingCorpus,
    Vocabulary,
    build_corpus,
    clean_corpus,
    interval_to_song,
    load_songs_jsonl,
    save_songs_jsonl,
    song_to_db12,
    song_to_interval,
)
from .errors import MelodyKitError
from .metrics import (
    MetricReport,
    MetricStats,
    SpanConfig,
    dataset_stats,
    evaluate_song,
    representative_song,
)
from .midi import parse_midi, write_midi
from .rnn import (
    CellParams,
    CellState,
    ModelState,
    TrainConfig,
    init_model,
    load_checkpoint,
    sample,
    save_checkpoint,
    stack_forward,
    train,
)

__version__ = "0.16.0"
